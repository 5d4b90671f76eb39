"""Per-request deadline budgets, propagated ambiently.

A request arrives with a time budget (the ``X-Repro-Deadline-Ms``
header, or the server's ``--default-deadline-ms``); the dispatch layer
opens a :func:`deadline_scope` around the handler, and any code on the
same thread can ask *"is there still time?"* without the budget being
threaded through every signature — crucially the solver, whose sweep
loop sits several layers below the HTTP handler (behind
``BackgroundModel.fit``, which takes no callback).

The ambient state is one thread-local slot.  While no deadline is set,
:func:`check_deadline` is a thread-local attribute read plus a ``None``
check — cheap enough to call once per solver sweep unconditionally, the
same cost discipline as a disabled :func:`repro.perf.add`.

Expiry raises :class:`DeadlineExceededError`, which the API layer maps
to ``503 deadline_exceeded`` with a ``retry_after`` hint: the client
lost this attempt but the server shed the work early instead of burning
a worker thread on an answer nobody is waiting for.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReproError

__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]


class DeadlineExceededError(ReproError):
    """The request's time budget ran out before the work finished.

    Attributes
    ----------
    budget_ms:
        The budget the request started with.
    elapsed_ms:
        Wall clock actually spent when the expiry was noticed.
    """

    def __init__(self, budget_ms: float, elapsed_ms: float) -> None:
        self.budget_ms = float(budget_ms)
        self.elapsed_ms = float(elapsed_ms)
        super().__init__(
            f"deadline of {budget_ms:.0f} ms exceeded "
            f"({elapsed_ms:.0f} ms elapsed)"
        )


class Deadline:
    """One monotonic expiry instant plus the budget it came from."""

    __slots__ = ("budget_ms", "started", "expires")

    def __init__(
        self, budget_ms: float, clock: float | None = None
    ) -> None:
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self.started = time.monotonic() if clock is None else clock
        self.expires = self.started + self.budget_ms / 1e3

    def expired(self) -> bool:
        return time.monotonic() >= self.expires

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        now = time.monotonic()
        if now >= self.expires:
            raise DeadlineExceededError(
                self.budget_ms, (now - self.started) * 1e3
            )


_local = threading.local()


def current_deadline() -> Deadline | None:
    """The deadline governing this thread, or ``None``."""
    return getattr(_local, "deadline", None)


def check_deadline() -> None:
    """Raise if this thread's ambient deadline (if any) has expired.

    The hot-path hook: no deadline set means one attribute read and out.
    """
    deadline = getattr(_local, "deadline", None)
    if deadline is not None:
        deadline.check()


@contextmanager
def deadline_scope(budget_ms: float | None) -> Iterator[Deadline | None]:
    """Install a deadline for the duration of the block (this thread).

    ``None`` (or a non-positive budget) installs nothing, so callers can
    pass an optional header value straight through.  Scopes nest; an
    inner scope with a *longer* budget than the enclosing one keeps the
    enclosing (tighter) deadline, so a sub-operation can never outlive
    its request.
    """
    if budget_ms is None or budget_ms <= 0:
        yield None
        return
    outer = getattr(_local, "deadline", None)
    inner = Deadline(budget_ms)
    if outer is not None and outer.expires <= inner.expires:
        inner = outer
    _local.deadline = inner
    try:
        yield inner
    finally:
        _local.deadline = outer
