"""Write-ahead log of typed feedback batches: records and the log interface.

The durable tier's core idea: every mutation of a session's knowledge
state (one :meth:`~repro.core.session.ExplorationSession.apply_many`
batch, or one undo) is appended to a log *before* the in-memory apply
commits.  Recovery is then "load the latest checkpoint and replay the
log tail" — bit-for-bit, because all feedback is typed and serialisable
and the session's refits are deterministic.

This module defines the backend-independent pieces:

* :class:`WalRecord` — one logged batch: session id, per-session
  monotonic sequence number, kind (``feedback`` / ``undo`` / ``abort``),
  the serialized feedback items, and a content checksum;
* :class:`FeedbackLogStore` — the capability interface a
  :class:`~repro.service.store.SessionStore` grows to become a durable
  store (append / tail / rollback / transactional
  checkpoint-and-prune), implemented by
  :class:`~repro.store.sqlite.SQLiteStore`;
* the fsync policies (``always`` / ``batch`` / ``off``) a durable
  backend maps onto its own flushing.

Record kinds
------------
``feedback``   a batch of feedback dicts, replayed through ``apply_many``
``undo``       one undo action, replayed through ``undo_last_feedback``
``abort``      annuls the record named by ``ref`` — written when the
               in-memory apply failed *after* its write-ahead record was
               already durable, so recovery must not replay it
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.service.store import StoreError

__all__ = [
    "FSYNC_POLICIES",
    "FeedbackLogStore",
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
    existed still verifies.
    """
    fields = [session_id, int(seq), kind, items, ref]
    if key is not None:
        fields.append(key)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry: a feedback batch, an undo, or an abort.

    ``key`` is the client-supplied idempotency key of a feedback batch
    (``None`` for undo/abort and for keyless clients); it rides in
    the log so recovery can rebuild the dedup map and refuse to replay a
    batch the session already holds.
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
        ref: int | None = None,
        key: str | None = None,
    ) -> "WalRecord":
        items = list(items) if items else []
        return cls(
            session_id=session_id,
            seq=int(seq),
            kind=kind,
            items=items,
            ref=ref,
            checksum=record_checksum(session_id, seq, kind, items, ref, key),
            key=key,
        )

    def verify(self) -> bool:
        """True when the stored checksum matches the record content."""
        return self.checksum == record_checksum(
            self.session_id, self.seq, self.kind, self.items, self.ref, self.key
        )


def resolve_aborts(records: list[WalRecord]) -> list[WalRecord]:
    """Drop aborted records and the abort markers that annul them.

    The sequence numbers of abort records still count for continuity —
    callers verify continuity on the raw tail first, then filter.
    """
    aborted = {r.ref for r in records if r.kind == "abort" and r.ref is not None}
    return [r for r in records if r.kind != "abort" and r.seq not in aborted]


class FeedbackLogStore(ABC):
    """Capability interface of a durable (write-ahead-logged) store.

    A concrete durable store is both a
    :class:`~repro.service.store.SessionStore` (checkpoints) and a
    ``FeedbackLogStore`` (the feedback tail since the last checkpoint);
    :mod:`repro.store.recovery` composes the two back into a live
    session.
    """

    @abstractmethod
    def append_feedback(
        self,
        session_id: str,
        items: list[dict],
        kind: str = "feedback",
        ref: int | None = None,
        key: str | None = None,
    ) -> WalRecord:
        """Durably append one batch; returns the record with its seq.

        Sequence numbers are per-session, monotonic, and contiguous; the
        append must be durable (per the store's fsync policy) before this
        returns — the caller commits the in-memory apply only afterwards.
        ``key`` is the batch's idempotency key, logged for dedup replay.
        """

    @abstractmethod
    def rollback_feedback(self, session_id: str, seq: int) -> None:
        """Annul the record ``seq`` (the in-memory apply failed).

        Only ever called for the newest record of a session, immediately
        after its append.  Backends either remove the record or append an
        ``abort`` marker; recovery treats both identically.
        """

    @abstractmethod
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

    @abstractmethod
    def last_seq(self, session_id: str) -> int:
        """Highest sequence number logged for the session (0 = none)."""

    @abstractmethod
    def checkpoint_and_prune(
        self, session_id: str, payload: dict, up_to_seq: int
    ) -> int:
        """Write a checkpoint and drop the log it folds, atomically.

        A crash must leave either the old checkpoint with its whole tail
        or the new checkpoint with the folded records gone; returns how
        many records were dropped.
        """
