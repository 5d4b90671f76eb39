"""Graceful drain: stop admitting, finish in-flight, checkpoint, exit.

One function, :func:`run_drain`, is the drain sequence of every front
door.  :meth:`repro.service.api.ServiceAPI.drain` runs it, and the
sharded :class:`~repro.service.router.Router` inherits that method; the
two triggers are

* the ``SIGTERM`` handler installed by ``repro serve`` (the orchestrator
  told this server to go away), and
* ``POST /v1/admin/drain`` (an operator asked it to hand its sessions
  off).

The sequence is fixed: flip the admission controller into draining mode
(new session work is refused with ``503 draining`` + ``Retry-After``,
pointing clients at another replica), wait — bounded by the drain
budget — for already-admitted requests to finish, and checkpoint every
live session through the store so a successor can resume them (a
``Router`` asks each worker to checkpoint its own).  If in-flight work
outlives the budget it is abandoned, not waited on forever: the report
says so, and the sessions those requests touched are still checkpointed
at whatever state their last *completed* batch reached — the WAL
guarantees nothing half-applied is ever persisted.  A budget must be a
finite number of seconds between 0 and :data:`MAX_DRAIN_BUDGET`
(:func:`drain_budget_seconds`).

Stopping the server is the caller's last step, *after* it has recorded,
printed or emitted the report: once the serve loop ends the process may
exit, and a daemon thread still holding an unpublished report dies with
it.  :func:`publish_drain_then_stop` is that ordering.
"""

from __future__ import annotations

import time

from repro import obs

__all__ = ["drain_budget_seconds", "publish_drain_then_stop", "run_drain"]

#: Default drain budget (seconds) used by serve and the admin route.
DEFAULT_DRAIN_BUDGET = 10.0

#: Longest drain budget accepted (seconds): an hour is far past any
#: interactive request, and far inside what a timed wait can represent.
MAX_DRAIN_BUDGET = 3600.0


def drain_budget_seconds(value) -> float:
    """``value`` as a drain budget in seconds.

    Raises ``ValueError`` unless it is a finite number between 0 and
    :data:`MAX_DRAIN_BUDGET`: an infinite or huge budget overflows the
    timed wait for in-flight work, and NaN makes that wait spin.
    """
    budget = float(value)
    if not 0.0 <= budget <= MAX_DRAIN_BUDGET:  # NaN fails both tests
        raise ValueError(
            "drain budget must be a number of seconds in "
            f"[0, {MAX_DRAIN_BUDGET:g}], got {budget}"
        )
    return budget


def run_drain(
    admission,
    sessions,
    budget_seconds: float = DEFAULT_DRAIN_BUDGET,
) -> dict:
    """Drain the server: refuse new work, settle, checkpoint.

    Parameters
    ----------
    admission:
        The server's :class:`~repro.resilience.admission.AdmissionController`.
    sessions:
        Whatever holds the sessions that must be checkpointed before the
        process goes away: anything with ``checkpoint_all() -> int`` (a
        :class:`~repro.service.manager.SessionManager`, a ``ServiceAPI``
        or a ``Router``).
    budget_seconds:
        How long to wait for in-flight requests before abandoning them.

    Returns a report dict (also logged by callers): whether this call
    initiated the drain, whether in-flight work settled inside the
    budget, how many sessions were checkpointed, and elapsed seconds.
    """
    started = time.monotonic()
    initiated = admission.begin_drain()
    idle = admission.wait_idle(budget_seconds)
    abandoned = admission.inflight
    checkpointed = sessions.checkpoint_all()
    return {
        "initiated": initiated,
        "idle": idle,
        "abandoned_inflight": abandoned,
        "checkpointed": checkpointed,
        "budget_seconds": float(budget_seconds),
        "elapsed_seconds": time.monotonic() - started,
    }


def publish_drain_then_stop(front_door, report: dict) -> None:
    """Record and emit a finished drain's report, then fire the hook.

    ``front_door`` is a :class:`~repro.service.api.ServiceAPI` (a
    ``Router`` is one): the report lands on its
    ``last_drain`` and in a ``drain`` event *before* its
    ``shutdown_hook`` stops the serve loop.  An exception from the hook
    is added to the report as ``shutdown_error``, never raised.
    """
    front_door.last_drain = report
    state = obs.active()
    if state is not None and state.events is not None:
        state.events.emit({"event": "drain", **report})
    if front_door.shutdown_hook is not None:
        try:
            front_door.shutdown_hook()
        except Exception as exc:  # noqa: BLE001 - reported, never raised
            report["shutdown_error"] = f"{type(exc).__name__}: {exc}"
