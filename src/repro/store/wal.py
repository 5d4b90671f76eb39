"""Write-ahead log of typed feedback batches: records and fsync policies.

The durable tier's core idea: every mutation of a session's knowledge
state (one :meth:`~repro.core.session.ExplorationSession.apply_many`
batch, or one undo) is appended to a log *before* the in-memory apply
commits.  Recovery is then "load the latest checkpoint and replay the
log tail" — bit-for-bit, because all feedback is typed and serialisable
and the session's refits are deterministic.

This module defines the log's records and durability settings:

* :class:`WalRecord` — one logged batch: session id, per-session
  monotonic sequence number, kind (``feedback`` / ``undo``), the
  serialized feedback items, and a content checksum;
* the fsync policies (``always`` / ``batch`` / ``off``), which the
  store maps onto SQLite's ``synchronous`` setting.

The log itself (append / tail / rollback / transactional
checkpoint-and-prune) is :class:`~repro.store.sqlite.SQLiteStore`, the
one session store.

Record kinds
------------
``feedback``   a batch of feedback dicts, replayed through ``apply_many``
``undo``       one undo action, replayed through ``undo_last_feedback``

A batch whose in-memory apply fails after its append is deleted from the
log (:meth:`~repro.store.sqlite.SQLiteStore.rollback_feedback`), so
recovery never replays it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.service.store import StoreError

__all__ = [
    "FSYNC_POLICIES",
    "WalRecord",
    "record_checksum",
    "validate_fsync_policy",
]

#: Accepted fsync policies, strictest first.
#:
#: ``always``  fsync after every append — an acknowledged batch survives
#:             power loss, at the cost of one disk flush per batch;
#: ``batch``   flush to the OS after every append, fsync every
#:             ``batch_every`` appends — a kernel crash can lose at most
#:             the last unsynced batches, a *process* crash loses nothing;
#: ``off``     leave flushing to the OS entirely (benchmarks, tests).
FSYNC_POLICIES = ("always", "batch", "off")


def validate_fsync_policy(policy: str) -> str:
    """Return the policy unchanged, or raise :class:`StoreError`."""
    if policy not in FSYNC_POLICIES:
        raise StoreError(
            f"unknown fsync policy {policy!r}; expected one of {FSYNC_POLICIES}"
        )
    return policy


def record_checksum(
    session_id: str,
    seq: int,
    kind: str,
    items: list[dict],
    ref: int | None = None,
    key: str | None = None,
) -> str:
    """Content hash of one WAL record (everything except the hash itself).

    Canonical JSON (sorted keys, no whitespace) so the checksum is stable
    across writers and Python versions.  The idempotency ``key`` enters
    the hash only when present, so every record written before keys
    existed still verifies.  ``ref`` is ``None`` in every record written
    now; it keeps its slot so records that carry one still verify.
    """
    fields = [session_id, int(seq), kind, items, ref]
    if key is not None:
        fields.append(key)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry: a feedback batch or an undo.

    ``key`` is the client-supplied idempotency key of a feedback batch
    (``None`` for undo and for keyless clients); it rides in the log so
    recovery can rebuild the dedup map and refuse to replay a batch the
    session already holds.  ``ref`` is read back from the log's ``ref``
    column, which no writer fills any more, for the checksum.
    """

    session_id: str
    seq: int
    kind: str = "feedback"
    items: list[dict] = field(default_factory=list)
    ref: int | None = None
    checksum: str = ""
    key: str | None = None

    @classmethod
    def make(
        cls,
        session_id: str,
        seq: int,
        kind: str = "feedback",
        items: list[dict] | None = None,
        key: str | None = None,
    ) -> "WalRecord":
        items = list(items) if items else []
        return cls(
            session_id=session_id,
            seq=int(seq),
            kind=kind,
            items=items,
            checksum=record_checksum(session_id, seq, kind, items, None, key),
            key=key,
        )

    def verify(self) -> bool:
        """True when the stored checksum matches the record content."""
        return self.checksum == record_checksum(
            self.session_id, self.seq, self.kind, self.items, self.ref, self.key
        )
