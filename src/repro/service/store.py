"""Session store errors and the session-id rule.

The one session store is :class:`~repro.store.sqlite.SQLiteStore`
(checkpoints plus a write-ahead feedback log in one database); a
restarted server or a surviving worker resumes from it.  A manager
without a store keeps its sessions in process memory only, and they end
with the process.  This module holds the store errors and
:func:`validate_session_id`, which the service layer and
:mod:`repro.store` both use.
"""

from __future__ import annotations

import re

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
