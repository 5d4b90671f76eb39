"""`repro.store`: the durable session tier — WAL, SQLite, recovery.

:mod:`repro.service.store` defines the session-store interface and the
in-process :class:`MemoryStore`; this package adds the *durable* tier on
top: the write-ahead log's records and fsync policies
(:mod:`repro.store.wal`), the SQLite backend holding checkpoints and log
together in one database (:mod:`repro.store.sqlite`), crash recovery by
checkpoint + replay (:mod:`repro.store.recovery`), and log compaction
(:mod:`repro.store.compaction`).

:func:`store_from_url` maps the CLI's ``--store`` URL syntax onto
concrete stores::

    memory:              MemoryStore        (no durability; default)
    sqlite:PATH          SQLiteStore        (one database, transactional)
"""

from __future__ import annotations

from repro.service.store import MemoryStore, SessionStore, StoreError
from repro.store.compaction import (
    CompactionPolicy,
    compact_offline,
    should_compact,
)
from repro.store.recovery import (
    RECOVERY_POLICIES,
    RecoveredState,
    load_session_state,
    recover_session,
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
    "CompactionPolicy",
    "RecoveredState",
    "SQLiteStore",
    "WalRecord",
    "compact_offline",
    "load_session_state",
    "record_checksum",
    "recover_session",
    "replay_records",
    "should_compact",
    "store_from_url",
    "validate_fsync_policy",
    "validate_recovery_policy",
    "verify_store",
]


def store_from_url(url: str, fsync: str = "batch") -> SessionStore:
    """Build a session store from a ``memory:`` or ``sqlite:PATH`` URL.

    Anything else — a bare path, an empty path, another scheme — raises
    :class:`StoreError` naming the two accepted forms.
    """
    if url in ("memory:", "memory"):
        return MemoryStore()
    scheme, _, path = url.partition(":")
    if scheme == "sqlite" and path:
        return SQLiteStore(path, fsync=fsync)
    raise StoreError(
        f"bad store URL {url!r}; expected memory: or sqlite:PATH"
    )
