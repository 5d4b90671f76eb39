"""Graceful drain: stop admitting, finish in-flight, checkpoint, exit.

One function, :func:`run_drain`, shared by the two triggers:

* the ``SIGTERM`` handler installed by ``repro serve`` (the orchestrator
  told this worker to go away), and
* ``POST /v1/admin/drain`` (an operator or the future shard router asked
  it to hand its sessions off).

The sequence is fixed: flip the admission controller into draining mode
(new session work is refused with ``503 draining`` + ``Retry-After``,
pointing clients at another replica), wait — bounded by the drain
budget — for already-admitted requests to finish, and checkpoint every
live session through the store so a successor can resume them.  If
in-flight work outlives the budget it is abandoned, not waited on
forever: the report says so, and the sessions those requests touched are
still checkpointed at whatever state their last *completed* batch
reached — the WAL guarantees nothing half-applied is ever persisted.

Stopping the server is the caller's last step, *after* it has recorded,
printed or emitted the report: once the serve loop ends the process may
exit, and a daemon thread still holding an unpublished report dies with
it.  :func:`publish_drain_then_stop` is that ordering for the
``/v1/admin/drain`` front doors.
"""

from __future__ import annotations

import time

from repro import obs

__all__ = ["publish_drain_then_stop", "run_drain"]

#: Default drain budget (seconds) used by serve and the admin route.
DEFAULT_DRAIN_BUDGET = 10.0


def run_drain(
    admission,
    manager,
    budget_seconds: float = DEFAULT_DRAIN_BUDGET,
) -> dict:
    """Drain the server: refuse new work, settle, checkpoint.

    Parameters
    ----------
    admission:
        The server's :class:`~repro.resilience.admission.AdmissionController`.
    manager:
        The :class:`~repro.service.manager.SessionManager` whose sessions
        must be checkpointed before the process goes away.
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
    if getattr(manager, "store", None) is not None:
        checkpointed = manager.checkpoint_all()
    else:
        checkpointed = 0  # ephemeral server: nothing to persist
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

    ``front_door`` is a :class:`~repro.service.api.ServiceAPI` or
    :class:`~repro.service.router.Router`: the report lands on its
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
