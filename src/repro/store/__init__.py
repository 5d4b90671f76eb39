"""`repro.store`: the session store — WAL, SQLite, recovery.

The one store is :class:`SQLiteStore` (:mod:`repro.store.sqlite`): each
session's latest checkpoint and the write-ahead feedback log since it,
in one database.  Around it: the log's records and fsync policies
(:mod:`repro.store.wal`), crash recovery by checkpoint + replay
(:mod:`repro.store.recovery`), and log compaction
(:mod:`repro.store.compaction`).  The store errors and the session-id
rule live in :mod:`repro.service.store`.

:func:`store_from_url` maps the CLI's ``--store sqlite:PATH`` URL onto
the store.  Without ``--store`` a server keeps its sessions in process
memory, and they end with it.
"""

from __future__ import annotations

from repro.service.store import StoreError
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
