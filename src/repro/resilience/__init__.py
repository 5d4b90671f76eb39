"""`repro.resilience`: deadlines, load shedding, retries, drain, chaos.

The paper's interactivity contract (sub-second view updates while a
human explores) only survives load if overloaded or slow requests fail
*fast and predictably* instead of queueing behind the GIL.  This package
is the substrate the service leans on to do that, four pieces:

* **deadlines** (:mod:`repro.resilience.deadline`) — a per-request time
  budget carried in a thread-local; the solver checks it once per sweep
  and aborts long solves with :class:`DeadlineExceededError` (mapped to
  ``503 deadline_exceeded``) instead of burning a worker thread;
* **admission control** (:mod:`repro.resilience.admission`) — a bounded
  in-flight counter that sheds session work with
  :class:`OverloadedError` (``503 overloaded`` + ``Retry-After``) once
  the bound is hit, and refuses new work with :class:`DrainingError`
  while the server drains;
* **retries** (:mod:`repro.resilience.retry`) — capped exponential
  backoff with full jitter, transport-error classification, and a
  closed/open/half-open :class:`CircuitBreaker`, used by
  :class:`~repro.service.client.ServiceClient`;
* **graceful drain** (:mod:`repro.resilience.drain`) — stop admitting,
  wait (bounded) for in-flight work, checkpoint every session, exit 0;
  driven by ``SIGTERM`` or ``POST /v1/admin/drain``.

All of it is proven by the **fault-injection harness** in
:mod:`repro.resilience.chaos`: named fault points (latency, exception,
torn response, worker kill) threaded through api/manager/store behind a
registry that costs one module-global read while disabled — the same
zero-overhead discipline as :mod:`repro.perf` and :mod:`repro.obs`.
"""

from repro.resilience.admission import (
    AdmissionController,
    DrainingError,
    OverloadedError,
)
from repro.resilience.chaos import (
    ChaosError,
    ChaosRegistry,
    FaultSpec,
    active_chaos,
    configure_chaos,
    disable_chaos,
    hit,
)
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceededError,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.drain import run_drain
from repro.resilience.retry import (
    BREAKER_STATES,
    BreakerOpen,
    CircuitBreaker,
    RetryDecision,
    backoff_delay,
    classify,
)

__all__ = [
    "AdmissionController",
    "BREAKER_STATES",
    "BreakerOpen",
    "ChaosError",
    "ChaosRegistry",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "DrainingError",
    "FaultSpec",
    "OverloadedError",
    "RetryDecision",
    "active_chaos",
    "backoff_delay",
    "check_deadline",
    "classify",
    "configure_chaos",
    "current_deadline",
    "deadline_scope",
    "disable_chaos",
    "hit",
    "run_drain",
]
