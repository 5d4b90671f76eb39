"""Session checkpoint stores: the interface and the in-process backend.

A :class:`SessionStore` maps session ids to JSON payloads (the wrapped
:func:`repro.io.session_to_payload` form written by the manager).
:class:`MemoryStore` — a thread-safe dict — serves tests and ephemeral
deployments; the one durable backend, which a restarted server resumes
from, is :class:`~repro.store.sqlite.SQLiteStore` (checkpoints plus a
write-ahead feedback log in one database).

Stores only ever see plain JSON values; the data matrix itself is never
stored (sessions are resumed against a dataset the manager resolves).
"""

from __future__ import annotations

import json
import re
import threading
from abc import ABC, abstractmethod

from repro.errors import ReproError

#: Session ids must be shell- and filename-safe.
_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


class SessionNotFoundError(ReproError):
    """No session with the requested id exists in memory or in the store."""


class StoreError(ReproError):
    """A store operation failed (corrupt payload, I/O error)."""


class InvalidSessionIdError(StoreError):
    """A session id is unsafe to use as a key (caller error, not I/O)."""


class NoStoreError(StoreError):
    """The operation needs a session store and none is attached.

    Running without a store is a configuration the caller chose, not
    damaged storage, so the API answers it with a 409.
    """


def validate_session_id(session_id: str) -> str:
    """Return the id unchanged, or raise :class:`InvalidSessionIdError`."""
    if not isinstance(session_id, str) or not _ID_PATTERN.match(session_id):
        raise InvalidSessionIdError(
            f"invalid session id {session_id!r}: ids must be 1-128 "
            "characters of [A-Za-z0-9._-] and not start with a punctuation"
        )
    return session_id


class SessionStore(ABC):
    """Abstract checkpoint store mapping session id -> JSON payload."""

    @abstractmethod
    def put(self, session_id: str, payload: dict) -> None:
        """Write (or overwrite) one session checkpoint."""

    @abstractmethod
    def get(self, session_id: str) -> dict:
        """Load one checkpoint; raise :class:`SessionNotFoundError` if absent."""

    @abstractmethod
    def delete(self, session_id: str) -> None:
        """Remove a checkpoint; missing ids are ignored."""

    @abstractmethod
    def list_ids(self) -> list[str]:
        """All stored session ids, sorted."""

    def close(self) -> None:
        """Release what the store holds open (nothing, unless overridden)."""

    def __contains__(self, session_id: str) -> bool:
        try:
            self.get(session_id)
        except (SessionNotFoundError, StoreError):
            return False
        return True


class MemoryStore(SessionStore):
    """In-process store; payloads are JSON round-tripped to stay isolated.

    The round-trip both deep-copies (so a caller mutating a payload after
    ``put`` cannot corrupt the store) and guarantees that anything accepted
    here would also survive the durable backend.
    """

    def __init__(self) -> None:
        self._payloads: dict[str, str] = {}
        self._lock = threading.RLock()

    def put(self, session_id: str, payload: dict) -> None:
        validate_session_id(session_id)
        try:
            encoded = json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"payload is not JSON-serialisable: {exc}") from exc
        with self._lock:
            self._payloads[session_id] = encoded

    def get(self, session_id: str) -> dict:
        validate_session_id(session_id)
        with self._lock:
            encoded = self._payloads.get(session_id)
        if encoded is None:
            raise SessionNotFoundError(f"no stored session {session_id!r}")
        return json.loads(encoded)

    def delete(self, session_id: str) -> None:
        validate_session_id(session_id)
        with self._lock:
            self._payloads.pop(session_id, None)

    def list_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._payloads)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._payloads
