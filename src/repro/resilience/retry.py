"""Client-side retry machinery: backoff, classification, circuit breaker.

Replaces the client's original "retry connection-refused with a fixed
0.1 s sleep" loop with the three standard ingredients:

* **classification** — :func:`classify` decides per failure whether a
  retry is safe and useful.  Connection-refused is always retryable (the
  request never reached a server).  Timeouts and mid-body transport
  failures are *ambiguous* — the server may have applied the work — so
  they are retried only when the request is idempotent (GET) or carries
  an ``Idempotency-Key`` that makes the replay exactly-once.  A ``503``
  whose response carries ``Retry-After`` is the server explicitly
  inviting a retry (shed / draining); any other answered status — every
  4xx in particular — is final.
* **capped exponential backoff with full jitter** —
  :func:`backoff_delay` draws uniformly from ``[0, min(cap, base·2ⁿ)]``,
  so a fleet of clients retrying the same incident spreads out instead
  of thundering back in lockstep; a server-supplied ``Retry-After``
  floors the draw.
* **a per-host circuit breaker** — closed / open / half-open.  After
  ``failure_threshold`` consecutive failures the breaker opens and
  requests fail fast locally for ``cooldown`` seconds; then one probe
  request is let through (half-open) and its outcome decides between
  closing and re-opening.  Each client holds its own breaker unless it
  is handed one to share.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

__all__ = [
    "BREAKER_STATES",
    "BreakerOpen",
    "CircuitBreaker",
    "RetryDecision",
    "backoff_delay",
    "classify",
]

#: Methods whose replay is safe without an idempotency key.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

BREAKER_STATES = ("closed", "open", "half-open")


def backoff_delay(
    attempt: int,
    base: float,
    cap: float,
    rng: random.Random | None = None,
    floor: float = 0.0,
) -> float:
    """Full-jitter exponential backoff for retry number ``attempt`` (0-based).

    Draws uniformly from ``[0, min(cap, base * 2**attempt)]`` and floors
    the result at ``floor`` (a server-supplied ``Retry-After``).  A zero
    ``base`` yields zero delay — tests rely on retry loops that never
    sleep.
    """
    ceiling = min(float(cap), float(base) * (2.0 ** max(int(attempt), 0)))
    if ceiling <= 0.0:
        return max(float(floor), 0.0)
    draw = (rng or random).uniform(0.0, ceiling)
    return max(draw, float(floor), 0.0)


@dataclass(frozen=True)
class RetryDecision:
    """Outcome of classifying one failure.

    ``kind`` is a stable tag for reporting: ``connection_refused``,
    ``transport``, ``server_retryable``, or ``final``.
    """

    retryable: bool
    kind: str
    retry_after: float | None = None


def classify(
    exc, method: str, *, idempotency_key: str | None = None
) -> RetryDecision:
    """Classify a :class:`~repro.service.client.ServiceClientError`.

    Duck-typed (``status`` / ``connection_refused`` / ``retry_after``
    attributes) so this module stays import-free of the client.
    """
    status = getattr(exc, "status", None)
    if status == 0:
        if getattr(exc, "connection_refused", False):
            # Never sent: always safe to retry (bridges server startup).
            return RetryDecision(True, "connection_refused")
        # Timeout or mid-body failure: the server may have applied the
        # work, so replay only when that replay is provably harmless.
        safe = (
            method.upper() in IDEMPOTENT_METHODS
            or idempotency_key is not None
        )
        return RetryDecision(safe, "transport")
    retry_after = getattr(exc, "retry_after", None)
    if status == 503 and retry_after is not None:
        # The server explicitly shed this request and named a comeback
        # time — the one *answered* status worth resending.
        return RetryDecision(True, "server_retryable", retry_after)
    return RetryDecision(False, "final")


class BreakerOpen(Exception):
    """Raised by :meth:`CircuitBreaker.acquire` while the breaker is open.

    Carries ``retry_after`` — seconds until the next half-open probe.
    """

    def __init__(self, host: str, retry_after: float) -> None:
        self.host = host
        self.retry_after = max(float(retry_after), 0.0)
        super().__init__(
            f"circuit breaker open for {host}; "
            f"next probe in {self.retry_after:.2f}s"
        )


class CircuitBreaker:
    """Closed / open / half-open breaker over consecutive failures.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`acquire` raises :class:`BreakerOpen` (fail fast, no
    socket touched).  After ``cooldown`` seconds one caller is admitted
    as the half-open probe; its success closes the breaker, its failure
    re-opens it for another cooldown.
    """

    def __init__(
        self,
        host: str = "",
        failure_threshold: int = 5,
        cooldown: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.host = host
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.open_count = 0
        self.rejected = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def acquire(self) -> None:
        """Gate one attempt; raises :class:`BreakerOpen` when tripped."""
        with self._lock:
            if self._state == "closed":
                return
            now = self._clock()
            elapsed = now - self._opened_at
            if self._state == "open" and elapsed >= self.cooldown:
                self._state = "half-open"
                self._probing = False
            if self._state == "half-open" and not self._probing:
                self._probing = True  # this caller is the probe
                return
            self.rejected += 1
            raise BreakerOpen(self.host, self.cooldown - elapsed)

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half-open":
                # The probe failed: straight back to open, fresh cooldown.
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False
                self.open_count += 1
                return
            self._failures += 1
            if self._state == "closed" and (
                self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self.open_count += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "host": self.host,
                "state": self._state,
                "consecutive_failures": self._failures,
                "opened": self.open_count,
                "rejected": self.rejected,
            }
