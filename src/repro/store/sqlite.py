"""`SQLiteStore`: checkpoints + write-ahead feedback log in one database.

One file holds everything the durable tier needs — the latest checkpoint
per session and the feedback records appended since that checkpoint — so
state is shareable across server restarts and (later) across worker
processes.  Concretely:

* **WAL-mode SQLite** with a busy timeout: many readers plus one writer
  at a time, safe across threads *and* processes (each thread gets its
  own connection; cross-process writers serialise on the database lock);
* **fsync policy** maps onto ``PRAGMA synchronous``: ``always`` →
  ``FULL`` (every commit hits the platter), ``batch`` → ``NORMAL``
  (SQLite syncs at WAL checkpoints — a process crash loses nothing, a
  power cut can lose the last unsynced commits), ``off`` → ``OFF``;
* **schema versioning** via ``PRAGMA user_version``: 0 (a new file)
  gets the schema, 1 is used as is, anything else is refused;
* **transactional compaction** — :meth:`checkpoint_and_prune` folds the
  log into a fresh checkpoint and drops the folded records in one
  transaction, so a crash mid-compaction can never lose feedback.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path

from repro.service.store import (
    SessionNotFoundError,
    StoreError,
    validate_session_id,
)
from repro.store.wal import WalRecord, validate_fsync_policy

__all__ = ["SCHEMA_VERSION", "SQLiteStore", "connect_wal"]

#: The schema version (``PRAGMA user_version``) this code reads and writes.
SCHEMA_VERSION = 1

# Statements run one by one inside the schema transaction
# (``executescript`` would implicitly commit and break its atomicity).
_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS checkpoints (
        session_id TEXT PRIMARY KEY,
        payload    TEXT NOT NULL,
        wal_seq    INTEGER NOT NULL DEFAULT 0,
        updated_at REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS wal (
        session_id TEXT NOT NULL,
        seq        INTEGER NOT NULL,
        kind       TEXT NOT NULL DEFAULT 'feedback',
        items      TEXT NOT NULL,
        ref        INTEGER,
        checksum   TEXT NOT NULL,
        created_at REAL NOT NULL,
        PRIMARY KEY (session_id, seq)
    )
    """,
)

_SYNCHRONOUS = {"always": "FULL", "batch": "NORMAL", "off": "OFF"}


def connect_wal(path: str | Path, busy_timeout_ms: int) -> sqlite3.Connection:
    """An autocommit connection to ``path`` in WAL journal mode.

    The first switch of a new file to WAL needs an exclusive lock, and
    SQLite answers a process that switches while another one does with
    "database is locked" at once instead of through the busy timeout.
    So the switch alone is retried while SQLite reports busy, until the
    busy timeout has passed.
    """
    conn = sqlite3.connect(
        path, timeout=busy_timeout_ms / 1000.0, isolation_level=None
    )
    deadline = time.monotonic() + busy_timeout_ms / 1000.0
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return conn
        except sqlite3.OperationalError as exc:
            if "database is locked" not in str(exc) or (
                time.monotonic() >= deadline
            ):
                conn.close()
                raise
        time.sleep(0.005)


class SQLiteStore:
    """The session store: one SQLite database file.

    It holds each session's latest checkpoint (a JSON payload keyed by
    session id) and the feedback log since that checkpoint;
    :class:`~repro.service.manager.SessionManager` composes the two
    back into a live session.

    Parameters
    ----------
    path:
        Database file (created, along with parent directories, on first
        use).  In-memory databases are rejected: they cannot provide the
        durability this class exists for.
    fsync:
        ``always`` / ``batch`` / ``off`` — see the module docstring.
    busy_timeout_ms:
        How long a connection waits on the database lock before raising,
        honoured for every concurrent writer (threads and processes).
    """

    def __init__(
        self,
        path: str | Path,
        fsync: str = "batch",
        busy_timeout_ms: int = 5000,
    ) -> None:
        text = str(path)
        if text == ":memory:" or text.startswith("file::memory:"):
            raise StoreError(
                "SQLiteStore needs a database file; an in-memory database "
                "cannot survive the crash this store protects against"
            )
        self.path = Path(text)
        self.fsync = validate_fsync_policy(fsync)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        # Opening one connection eagerly creates or checks the schema, so
        # construction fails loudly on an unusable database.
        self._conn()

    # ------------------------------------------------------------------
    # Connections and schema
    # ------------------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (one per thread; SQLite requirement).

        Keyed on PID as well as thread: a connection inherited across
        ``fork()`` shares the parent's file descriptor and lock state,
        and using — or even closing — it from the child can corrupt the
        parent's session.  On a PID change the stale handle is dropped
        without ``close()`` and a fresh connection opened.  (Workers of
        the sharded service are ``spawn``\\ ed and never hit this path;
        the guard covers user code that forks around a live store.)
        """
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if getattr(self._local, "pid", None) == pid:
                return conn
            self._local.conn = None  # forked: drop, never close
        try:
            conn = connect_wal(self.path, self.busy_timeout_ms)
            conn.execute(
                f"PRAGMA synchronous = {_SYNCHRONOUS[self.fsync]}"
            )
            self._ensure_schema(conn)
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open session database {self.path}: {exc}"
            ) from exc
        self._local.conn = conn
        self._local.pid = pid
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        """Create the schema in a new file (version 0); refuse all but 1."""
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == SCHEMA_VERSION:
            return
        if version != 0:
            raise StoreError(
                f"database {self.path} has schema version {version}; this "
                f"code reads version {SCHEMA_VERSION} only (a new file has "
                "0) and will not touch a newer or unknown one"
            )
        conn.execute("BEGIN IMMEDIATE")
        try:
            # Re-check under the write lock: another process may have
            # created the schema while we waited.
            if conn.execute("PRAGMA user_version").fetchone()[0] == 0:
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if getattr(self._local, "pid", None) == os.getpid():
                conn.close()
            # else: inherited across fork — dropping the reference is the
            # only safe disposal (closing would release the parent's locks)
            self._local.conn = None

    def _execute(self, sql: str, params: tuple = ()):
        try:
            return self._conn().execute(sql, params)
        except sqlite3.Error as exc:
            raise StoreError(f"store query failed on {self.path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _encode(payload: dict) -> str:
        try:
            return json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"payload is not JSON-serialisable: {exc}") from exc

    def get(self, session_id: str) -> dict:
        validate_session_id(session_id)
        row = self._execute(
            "SELECT payload FROM checkpoints WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        if row is None:
            raise SessionNotFoundError(
                f"no stored session {session_id!r} in {self.path}"
            )
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt checkpoint for {session_id!r} in {self.path}: {exc}"
            ) from exc

    def delete(self, session_id: str) -> None:
        validate_session_id(session_id)
        conn = self._conn()
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "DELETE FROM checkpoints WHERE session_id = ?", (session_id,)
            )
            conn.execute("DELETE FROM wal WHERE session_id = ?", (session_id,))
            conn.execute("COMMIT")
        except sqlite3.Error as exc:
            conn.execute("ROLLBACK")
            raise StoreError(
                f"cannot delete session {session_id!r} from {self.path}: {exc}"
            ) from exc

    def list_ids(self) -> list[str]:
        rows = self._execute(
            "SELECT session_id FROM checkpoints "
            "UNION SELECT session_id FROM wal ORDER BY session_id"
        ).fetchall()
        return [row[0] for row in rows]

    def __contains__(self, session_id: str) -> bool:
        try:
            validate_session_id(session_id)
        except StoreError:
            return False
        row = self._execute(
            "SELECT 1 FROM checkpoints WHERE session_id = ? LIMIT 1",
            (session_id,),
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    # The write-ahead log
    # ------------------------------------------------------------------

    def append_feedback(
        self,
        session_id: str,
        items: list[dict],
        kind: str = "feedback",
        key: str | None = None,
    ) -> WalRecord:
        """Durably append one batch; returns the record with its seq.

        Sequence numbers are per-session, monotonic, and contiguous; the
        append is durable (per the fsync policy) before this returns —
        the caller commits the in-memory apply only afterwards.  ``key``
        is the batch's idempotency key, logged for dedup replay.
        """
        validate_session_id(session_id)
        items = list(items)
        # The idempotency key rides inside the items JSON column, so the
        # schema needs no migration and keyless rows stay byte-identical.
        body = {"items": items}
        if key is not None:
            body["key"] = key
        encoded = self._encode(body)
        conn = self._conn()
        try:
            # BEGIN IMMEDIATE takes the write lock up front, so the
            # MAX(seq) read and the insert are one atomic step even with
            # concurrent writers in other threads or processes.
            conn.execute("BEGIN IMMEDIATE")
            # The floor is MAX(log, checkpoint.wal_seq): compaction deletes
            # folded records, and sequence numbers must stay monotonic past
            # the fold or the folded-in batches' numbers would be reissued
            # below the checkpoint's wal_seq — invisible to recovery.
            row = conn.execute(
                "SELECT MAX("
                " COALESCE((SELECT MAX(seq) FROM wal WHERE session_id = ?1), 0),"
                " COALESCE((SELECT wal_seq FROM checkpoints"
                "           WHERE session_id = ?1), 0))",
                (session_id,),
            ).fetchone()
            seq = int(row[0]) + 1
            record = WalRecord.make(session_id, seq, kind, items, key=key)
            conn.execute(
                "INSERT INTO wal "
                "(session_id, seq, kind, items, checksum, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (session_id, seq, kind, encoded, record.checksum, time.time()),
            )
            conn.execute("COMMIT")
        except sqlite3.Error as exc:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise StoreError(
                f"cannot append feedback for {session_id!r} to "
                f"{self.path}: {exc}"
            ) from exc
        return record

    def rollback_feedback(self, session_id: str, seq: int) -> None:
        """Annul the record ``seq`` (the in-memory apply failed).

        Only ever called for the newest record of a session, immediately
        after its append; the record is removed outright, so the next
        append reuses its seq and recovery never sees it.
        """
        self._execute(
            "DELETE FROM wal WHERE session_id = ? AND seq = ?",
            (session_id, int(seq)),
        )

    def truncate_log(self, session_id: str, after_seq: int) -> None:
        """Delete the session's records past ``after_seq``.

        A truncating resume calls this for the damaged records it
        dropped: left in place, they would put the next append past the
        damage, and the next resume would drop that batch too.
        """
        validate_session_id(session_id)
        self._execute(
            "DELETE FROM wal WHERE session_id = ? AND seq > ?",
            (session_id, int(after_seq)),
        )

    def feedback_tail(
        self, session_id: str, after_seq: int = 0
    ) -> tuple[list[WalRecord], str | None]:
        """Records with ``seq > after_seq`` in order, plus damage info.

        The second element is ``None`` for a clean read, or a description
        of storage-level tail damage (an unreadable row) — in which case
        the returned records are the valid prefix and
        :mod:`repro.store.recovery`'s corrupt-tail policy decides whether
        that prefix is acceptable.
        """
        validate_session_id(session_id)
        rows = self._execute(
            "SELECT seq, kind, items, ref, checksum FROM wal "
            "WHERE session_id = ? AND seq > ? ORDER BY seq",
            (session_id, int(after_seq)),
        ).fetchall()
        records: list[WalRecord] = []
        for seq, kind, encoded, ref, checksum in rows:
            try:
                body = json.loads(encoded)
                items = body["items"]
            except (json.JSONDecodeError, KeyError, TypeError):
                return records, (
                    f"unreadable WAL record {session_id!r}#{seq} in "
                    f"{self.path}"
                )
            records.append(
                WalRecord(
                    session_id=session_id,
                    seq=int(seq),
                    kind=str(kind),
                    items=list(items),
                    ref=ref if ref is None else int(ref),
                    checksum=str(checksum),
                    key=body.get("key"),
                )
            )
        return records, None

    def last_seq(self, session_id: str) -> int:
        """Highest sequence number logged for the session (0 = none)."""
        row = self._execute(
            "SELECT MAX("
            " COALESCE((SELECT MAX(seq) FROM wal WHERE session_id = ?1), 0),"
            " COALESCE((SELECT wal_seq FROM checkpoints"
            "           WHERE session_id = ?1), 0))",
            (session_id,),
        ).fetchone()
        return int(row[0])

    def checkpoint_and_prune(
        self, session_id: str, payload: dict, up_to_seq: int
    ) -> int:
        """Write a checkpoint and drop the log it folds, atomically.

        One transaction: a crash leaves either the old checkpoint with
        its whole tail or the new checkpoint with the folded records
        gone.  Returns how many records were dropped.
        """
        validate_session_id(session_id)
        encoded = self._encode(payload)
        conn = self._conn()
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT INTO checkpoints "
                "(session_id, payload, wal_seq, updated_at) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(session_id) DO UPDATE SET "
                "payload = excluded.payload, wal_seq = excluded.wal_seq, "
                "updated_at = excluded.updated_at",
                (
                    session_id,
                    encoded,
                    int(payload.get("wal_seq", 0)),
                    time.time(),
                ),
            )
            cursor = conn.execute(
                "DELETE FROM wal WHERE session_id = ? AND seq <= ?",
                (session_id, int(up_to_seq)),
            )
            dropped = int(cursor.rowcount)
            conn.execute("COMMIT")
        except sqlite3.Error as exc:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise StoreError(
                f"cannot compact session {session_id!r} in {self.path}: {exc}"
            ) from exc
        return dropped
