"""`repro.store`: the session store — WAL, SQLite, recovery.

The one store is :class:`SQLiteStore` (:mod:`repro.store.sqlite`): each
session's latest checkpoint and the write-ahead feedback log since it,
in one database.  Around it: the log's records and fsync policies
(:mod:`repro.store.wal`), and reading a checkpoint with its validated
log tail plus the integrity sweep (:mod:`repro.store.recovery`).  The
store errors and the session-id rule live in :mod:`repro.service.store`.

Rebuilding a session from the store and folding its log into a fresh
checkpoint belong to :class:`~repro.service.manager.SessionManager`
alone; ``repro store compact`` resumes, checkpoints and releases each
session through one, so an offline fold keeps the session's idempotency
keys exactly as a server's fold does.

:func:`store_from_url` maps the CLI's ``--store sqlite:PATH`` URL onto
the store.  Without ``--store`` a server keeps its sessions in process
memory, and they end with it.
"""

from __future__ import annotations

from repro.service.store import StoreError
from repro.store.recovery import (
    RECOVERY_POLICIES,
    RecoveredState,
    load_session_state,
    replay_records,
    validate_recovery_policy,
    verify_store,
)
from repro.store.sqlite import SQLiteStore
from repro.store.wal import (
    FSYNC_POLICIES,
    WalRecord,
    record_checksum,
    validate_fsync_policy,
)

__all__ = [
    "FSYNC_POLICIES",
    "RECOVERY_POLICIES",
    "RecoveredState",
    "SQLiteStore",
    "WalRecord",
    "load_session_state",
    "record_checksum",
    "replay_records",
    "store_from_url",
    "validate_fsync_policy",
    "validate_recovery_policy",
    "verify_store",
]


def store_from_url(url: str, fsync: str = "batch") -> SQLiteStore:
    """Open the session store a ``sqlite:PATH`` URL names.

    Anything else — a bare path, an empty path, another scheme such as
    the retired ``memory:``, ``dir:`` and ``wal:`` — raises
    :class:`StoreError` naming the accepted form.
    """
    scheme, _, path = url.partition(":")
    if scheme == "sqlite" and path:
        return SQLiteStore(path, fsync=fsync)
    raise StoreError(f"bad store URL {url!r}; expected sqlite:PATH")
