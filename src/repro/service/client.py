"""Python client for the repro session service.

A thin, dependency-free wrapper over :mod:`urllib.request` that mirrors
the versioned ``/v1`` HTTP API one method per route.  Used by the tests,
the examples and the throughput benchmark; it is also the reference for
writing clients in other languages (every payload is plain JSON).

>>> client = ServiceClient("http://127.0.0.1:8000")      # doctest: +SKIP
>>> sid = client.create_session("three-d")               # doctest: +SKIP
>>> view = client.view(sid)                              # doctest: +SKIP
>>> client.apply_feedback(sid, [                         # doctest: +SKIP
...     ClusterFeedback(rows=tuple(range(50)), label="blob"),
... ])
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
import uuid
from typing import Sequence

from repro.errors import ReproError
from repro.feedback import (
    ClusterFeedback,
    Feedback,
    ViewSelectionFeedback,
)
from repro.obs import TRACE_HEADER, new_trace_id
from repro.resilience.retry import (
    BreakerOpen,
    CircuitBreaker,
    backoff_delay,
    classify,
)
from repro.service.api import API_VERSION, DEADLINE_HEADER, IDEMPOTENCY_HEADER


class ServiceClientError(ReproError):
    """The server answered with an error status.

    Attributes
    ----------
    status:
        HTTP status code.
    payload:
        Decoded JSON error payload (carries an ``"error"`` message).
    connection_refused:
        True when the failure was a refused TCP connection (status 0) —
        never answered, so always safe to retry.
    retry_after:
        Server-supplied backoff hint in seconds (the ``Retry-After``
        header or the payload's ``retry_after``), or ``None``.  A 503
        carrying one is the only *answered* status the client retries.
    breaker_open:
        True when the request never touched the network because the
        client's circuit breaker was open.
    """

    def __init__(
        self,
        status: int,
        payload: dict,
        connection_refused: bool = False,
        retry_after: float | None = None,
        breaker_open: bool = False,
    ) -> None:
        self.status = status
        self.payload = payload
        self.connection_refused = bool(connection_refused)
        if retry_after is None and isinstance(payload, dict):
            raw = payload.get("retry_after")
            retry_after = float(raw) if raw is not None else None
        self.retry_after = retry_after
        self.breaker_open = bool(breaker_open)
        super().__init__(
            f"HTTP {status}: {payload.get('error', 'unknown error')}"
        )


class ServiceClient:
    """Talks to one repro service endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8000"`` (trailing slash optional).
    timeout:
        Per-request socket timeout in seconds.
    connect_retries:
        How many times a connection-refused request is retried before
        giving up.  This bridges the race between launching a server and
        its socket actually listening — load generators can start their
        workers first.
    retry_delay:
        Base backoff delay between retries, in seconds.  Actual delays
        are capped exponential with full jitter
        (``uniform(0, min(max_delay, retry_delay · 2ⁿ))``), floored at
        any server-supplied ``Retry-After``; ``0.0`` disables sleeping.
    max_retries:
        Retry bound for retryable failures other than connection-refused:
        ambiguous transport errors on idempotent requests (GET, or
        anything carrying an ``Idempotency-Key``) and 503s that name a
        ``Retry-After``.  Answered 4xx responses are never resent.
    max_delay:
        Ceiling of one backoff sleep, seconds.
    retry_budget:
        Cap on the *total* backoff sleep of one logical request.
    deadline_ms:
        When set, every request carries it as ``X-Repro-Deadline-Ms`` —
        the server aborts work that cannot finish inside the budget.
    breaker:
        A :class:`~repro.resilience.retry.CircuitBreaker` to use (pass
        one instance to several clients to share it), or ``None`` for a
        private per-client one.  ``breaker=False`` disables the breaker
        entirely.

    Every request carries a fresh ``X-Repro-Trace-Id`` header; a server
    with observability enabled adopts it for the request's trace and
    echoes it back, so a client-side failure can be joined directly
    against the server's event log.  The id of the most recent request is
    kept at :attr:`last_trace_id`; :attr:`last_attempts` holds how many
    attempts the most recent logical request took, and :attr:`counters`
    accumulates ``retries`` / ``shed`` / ``breaker_open`` /
    ``deadline_exceeded`` / ``dedup`` across the client's lifetime (the
    numbers loadgen reports).
    """

    #: Prefix of every request path (the server routes ``/v1`` only).
    prefix = f"/{API_VERSION}"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        connect_retries: int = 3,
        retry_delay: float = 0.1,
        max_retries: int = 2,
        max_delay: float = 2.0,
        retry_budget: float = 15.0,
        deadline_ms: float | None = None,
        breaker: CircuitBreaker | bool | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if connect_retries < 0:
            raise ValueError(
                f"connect_retries must be non-negative, got {connect_retries}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        self.connect_retries = int(connect_retries)
        self.retry_delay = float(retry_delay)
        self.max_retries = int(max_retries)
        self.max_delay = float(max_delay)
        self.retry_budget = float(retry_budget)
        self.deadline_ms = deadline_ms
        if breaker is False:
            self.breaker: CircuitBreaker | None = None
        elif isinstance(breaker, CircuitBreaker):
            self.breaker = breaker
        else:
            self.breaker = CircuitBreaker(self.base_url)
        self.last_trace_id: str | None = None
        self.last_attempts = 0
        self.counters = {
            "retries": 0,
            "shed": 0,
            "breaker_open": 0,
            "deadline_exceeded": 0,
            "dedup": 0,
        }
        self._rng = random.Random()
        self._pending_idem_key: str | None = None

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        decode_json: bool = True,
    ):
        """One logical request: retry loop + backoff + circuit breaker.

        Retryable classes and their bounds: connection-refused
        (``connect_retries``); ambiguous transport failures when the
        replay is provably safe, and Retry-After-bearing 503s (both
        ``max_retries``).  Total sleep is capped by ``retry_budget``.
        """
        refused_retries = 0
        other_retries = 0
        slept = 0.0
        attempts = 0
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.acquire()
                except BreakerOpen as exc:
                    self.counters["breaker_open"] += 1
                    self.last_attempts = attempts
                    raise ServiceClientError(
                        0,
                        {"error": str(exc)},
                        retry_after=exc.retry_after,
                        breaker_open=True,
                    ) from exc
            attempts += 1
            try:
                result = self._request_once(
                    method, path, body, decode_json=decode_json
                )
            except ServiceClientError as exc:
                # An answered non-5xx response means the server is alive
                # and working, whatever it thought of the request.
                if self.breaker is not None:
                    if exc.status != 0 and exc.status < 500:
                        self.breaker.record_success()
                    else:
                        self.breaker.record_failure()
                kind = (
                    exc.payload.get("kind")
                    if isinstance(exc.payload, dict)
                    else None
                )
                if kind in ("overloaded", "draining"):
                    self.counters["shed"] += 1
                elif kind == "deadline_exceeded":
                    self.counters["deadline_exceeded"] += 1
                decision = classify(
                    exc, method, idempotency_key=self._pending_idem_key
                )
                if decision.kind == "connection_refused":
                    used, bound = refused_retries, self.connect_retries
                else:
                    used, bound = other_retries, self.max_retries
                if not decision.retryable or used >= bound:
                    self.last_attempts = attempts
                    raise
                delay = backoff_delay(
                    used,
                    self.retry_delay,
                    self.max_delay,
                    rng=self._rng,
                    floor=decision.retry_after or 0.0,
                )
                if slept + delay > self.retry_budget:
                    self.last_attempts = attempts
                    raise
                if decision.kind == "connection_refused":
                    refused_retries += 1
                else:
                    other_retries += 1
                self.counters["retries"] += 1
                if delay > 0:
                    time.sleep(delay)
                slept += delay
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self.last_attempts = attempts
                return result

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        decode_json: bool = True,
    ):
        data = json.dumps(body).encode() if body is not None else None
        # A fresh id per attempt; a retried request is a new trace on the
        # server, joined client-side through `last_attempts`/counters.
        trace_id = new_trace_id()
        self.last_trace_id = trace_id
        headers = {
            "Content-Type": "application/json",
            TRACE_HEADER: trace_id,
        }
        if self.deadline_ms is not None:
            headers[DEADLINE_HEADER] = f"{self.deadline_ms:g}"
        if self._pending_idem_key is not None:
            # Stable across the attempts of one logical request — what
            # makes retrying an ambiguous feedback failure exactly-once.
            headers[IDEMPOTENCY_HEADER] = self._pending_idem_key
        request = urllib.request.Request(
            self.base_url + self.prefix + path,
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            retry_after = None
            raw_retry = exc.headers.get("Retry-After") if exc.headers else None
            if raw_retry is not None:
                try:
                    retry_after = float(raw_retry)
                except ValueError:
                    retry_after = None
            try:
                payload = json.loads(exc.read() or b"{}")
            except (ValueError, OSError, http.client.HTTPException):
                # ValueError: a non-JSON or non-UTF-8 error body.
                payload = {"error": str(exc)}
            raise ServiceClientError(
                exc.code, payload, retry_after=retry_after
            ) from exc
        except urllib.error.URLError as exc:
            refused = isinstance(exc.reason, ConnectionRefusedError)
            raise ServiceClientError(
                0,
                {"error": f"cannot reach {self.base_url}: {exc.reason}"},
                connection_refused=refused,
            ) from exc
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            # The server died mid-response (truncated read, reset socket).
            raise ServiceClientError(
                0,
                {
                    "error": (
                        f"connection to {self.base_url} failed mid-request: "
                        f"{type(exc).__name__}: {exc}"
                    )
                },
            ) from exc
        if not decode_json:
            return raw.decode("utf-8", "replace")
        try:
            return json.loads(raw or b"{}")
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            # A dying or misbehaving server can emit a non-JSON (or
            # truncated, or non-UTF-8) success body; surface it as a client
            # error rather than a raw decode exception.
            raise ServiceClientError(
                status,
                {
                    "error": (
                        f"server returned invalid JSON "
                        f"({len(raw)} bytes): {exc}"
                    )
                },
            ) from exc

    # ------------------------------------------------------------------
    # Service-level endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Liveness probe."""
        return self._request("GET", "/health")

    def datasets(self) -> list[str]:
        """Dataset names sessions can be created on."""
        return self._request("GET", "/datasets")["datasets"]

    def objectives(self) -> list[dict]:
        """Registered view objectives as ``{"name", "description"}`` rows."""
        return self._request("GET", "/objectives")["objectives"]

    def server_stats(self) -> dict:
        """Manager and solve-cache statistics."""
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """Prometheus text exposition of the server's metrics registry."""
        return self._request("GET", "/metrics", decode_json=False)

    def metrics(self) -> dict:
        """Server metrics as JSON: ``{"enabled": bool, "families": {...}}``."""
        return self._request("GET", "/metrics?format=json")

    def metrics_history(self, seconds: float | None = None) -> dict:
        """Retained metrics time-series + server-side derivation.

        ``{"enabled": bool, "samples": [...], "derived": {...}}`` — see
        ``GET /v1/metrics/history``.  ``seconds`` trims the window.
        """
        path = "/metrics/history"
        if seconds is not None:
            path += f"?seconds={seconds:g}"
        return self._request("GET", path)

    def list_sessions(self) -> list[dict]:
        """Summaries of live and checkpointed sessions."""
        return self._request("GET", "/sessions")["sessions"]

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def create_session(
        self,
        dataset: str,
        objective: str = "pca",
        standardize: bool = False,
        seed: int | None = 0,
        session_id: str | None = None,
    ) -> str:
        """Create a session; returns its id."""
        body: dict = {
            "dataset": dataset,
            "objective": objective,
            "standardize": standardize,
            "seed": seed,
        }
        if session_id is not None:
            body["session_id"] = session_id
        return self._request("POST", "/sessions", body)["session_id"]

    def session(self, session_id: str) -> dict:
        """Session status; transparently resumes a checkpointed session."""
        return self._request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> dict:
        """Remove a session and its checkpoint."""
        return self._request("DELETE", f"/sessions/{session_id}")

    def checkpoint(self, session_id: str) -> dict:
        """Persist the session's knowledge state on the server."""
        return self._request("POST", f"/sessions/{session_id}/checkpoint")

    # ------------------------------------------------------------------
    # The interactive loop
    # ------------------------------------------------------------------

    def view(
        self,
        session_id: str,
        objective: str | None = None,
        detail: bool = False,
    ) -> dict:
        """Current most-informative 2-D view (axes, scores, labels).

        ``detail=True`` asks for the exploration-policy observation
        payload: per-row ``row_surprise``, the data ``projected`` onto
        the view axes, and ``knowledge_nats``.
        """
        path = f"/sessions/{session_id}/view"
        query = []
        if objective is not None:
            query.append(f"objective={objective}")
        if detail:
            query.append("detail=1")
        if query:
            path += "?" + "&".join(query)
        return self._request("GET", path)

    def apply_feedback(
        self,
        session_id: str,
        batch: Sequence[Feedback | dict],
        idempotency_key: str | None = None,
    ) -> dict:
        """Post a batch of feedback objects (applied with one refit).

        Items may be :mod:`repro.feedback` objects or their ``to_dict``
        forms; all four kinds (``cluster``, ``view``, ``margins``,
        ``covariance``) can be mixed in one batch.  Returns the session
        stats with the applied labels under ``"applied"``.

        Each logical call carries one ``Idempotency-Key`` (minted here
        unless given) held stable across retries, so resending after an
        ambiguous failure — timeout, torn response, dead server — can
        never double-apply the batch: a replay the server has already
        committed answers with the cached stats and ``"duplicate": True``
        (counted under ``counters["dedup"]``).
        """
        items = [
            item.to_dict() if isinstance(item, Feedback) else dict(item)
            for item in batch
        ]
        self._pending_idem_key = idempotency_key or uuid.uuid4().hex
        try:
            stats = self._request(
                "POST", f"/sessions/{session_id}/feedback", {"feedback": items}
            )
        finally:
            self._pending_idem_key = None
        if isinstance(stats, dict) and stats.get("duplicate"):
            self.counters["dedup"] += 1
        return stats

    def mark_cluster(
        self, session_id: str, rows: Sequence[int], label: str = ""
    ) -> dict:
        """Post "these points form a cluster" feedback (one-item batch)."""
        return self.apply_feedback(
            session_id, [ClusterFeedback(rows=rows, label=label)]
        )

    def mark_view_selection(
        self, session_id: str, rows: Sequence[int], label: str = ""
    ) -> dict:
        """Post feedback along the session's current view axes."""
        return self.apply_feedback(
            session_id, [ViewSelectionFeedback(rows=rows, label=label)]
        )

    def undo(self, session_id: str) -> str | None:
        """Retract the most recent feedback action; returns its label."""
        return self._request("POST", f"/sessions/{session_id}/undo")["undone"]
