"""Crash recovery: checkpoint + write-ahead-log tail → live session.

The recovery contract is *at-least-checkpoint, exactly-acknowledged*:
every feedback batch whose ``apply_many`` was acknowledged before a
crash is present after recovery, and the recovered session's views are
bit-identical to an uninterrupted run — because all knowledge flows
through typed serialisable :class:`~repro.feedback.Feedback` and the
session's refits are deterministic.

The sequence of steps for one session:

1. read the latest checkpoint (:meth:`SQLiteStore.get`), which carries
   the sequence number ``wal_seq`` it folded in;
2. read the log tail with ``seq > wal_seq`` and validate it — sequence
   continuity (no gaps: a gap means records vanished) and per-record
   checksums (bit rot);
3. apply the **corrupt-tail policy** to any damage: ``truncate`` keeps
   the valid prefix and reports what was dropped (the pragmatic default
   for an interactive tool — old knowledge beats no knowledge; a resume
   then deletes the dropped records, a ``verify`` only reports them),
   ``fail`` raises :class:`StoreError` so the operator decides;
4. rebuild the session from the checkpoint payload and replay the
   surviving records through the same ``apply_many`` / ``undo`` codepath
   a live server uses.

Steps 1-3 are :func:`load_session_state` and the replay in step 4 is
:func:`replay_records`; the rebuild around them — checkpoint payload,
idempotency keys, bookkeeping — is
:meth:`repro.service.manager.SessionManager._resume_locked`, the one
place a session is rebuilt from the store, online or offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.feedback import feedback_from_dict
from repro.service.store import StoreError
from repro.store.sqlite import SQLiteStore
from repro.store.wal import WalRecord

__all__ = [
    "RECOVERY_POLICIES",
    "RecoveredState",
    "load_session_state",
    "replay_records",
    "validate_recovery_policy",
    "verify_store",
]

#: ``truncate`` — drop the damaged suffix, recover the valid prefix, and
#: report what was lost; ``fail`` — raise on any damage.
RECOVERY_POLICIES = ("truncate", "fail")


def validate_recovery_policy(policy: str) -> str:
    """Return the policy unchanged, or raise :class:`StoreError`."""
    if policy not in RECOVERY_POLICIES:
        raise StoreError(
            f"unknown recovery policy {policy!r}; expected one of "
            f"{RECOVERY_POLICIES}"
        )
    return policy


@dataclass
class RecoveredState:
    """Everything recovery learned about one session, pre-replay.

    ``records`` is the replayable tail (damage policy already applied);
    ``wal_seq`` is the highest sequence number covered by checkpoint +
    tail, i.e. what the next append will follow; ``warnings`` describes
    anything the ``truncate`` policy dropped.
    """

    session_id: str
    payload: dict
    records: list[WalRecord] = field(default_factory=list)
    wal_seq: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def replayed_batches(self) -> int:
        return len(self.records)


def _validated_tail(
    store: SQLiteStore,
    session_id: str,
    after_seq: int,
    policy: str,
) -> tuple[list[WalRecord], int, list[str]]:
    """Read and validate one session's log tail under ``policy``.

    Returns ``(replayable_records, last_seq_covered, warnings)``.
    """
    records, damage = store.feedback_tail(session_id, after_seq=after_seq)
    warnings: list[str] = []

    def _flinch(problem: str, keep: int) -> list[WalRecord]:
        if policy == "fail":
            raise StoreError(
                f"corrupt WAL tail for session {session_id!r}: {problem}"
            )
        dropped = len(records) - keep
        detail = (
            f"truncated {dropped} trailing record(s)"
            if dropped
            else "recovered the valid prefix"
        )
        warnings.append(f"session {session_id!r}: {problem}; {detail}")
        return records[:keep]

    if damage is not None:
        records = _flinch(damage, keep=len(records))

    expected = after_seq + 1
    for index, record in enumerate(records):
        if record.seq != expected:
            records = _flinch(
                f"sequence gap at #{expected} (found #{record.seq})",
                keep=index,
            )
            break
        if not record.verify():
            records = _flinch(
                f"checksum mismatch at record #{record.seq}", keep=index
            )
            break
        expected = record.seq + 1

    last_covered = records[-1].seq if records else after_seq
    return records, last_covered, warnings


def load_session_state(
    store: SQLiteStore,
    session_id: str,
    policy: str = "truncate",
) -> RecoveredState:
    """Checkpoint + validated tail for one session (no replay yet)."""
    validate_recovery_policy(policy)
    payload = store.get(session_id)
    checkpoint_seq = int(payload.get("wal_seq", 0))
    records, last_covered, warnings = _validated_tail(
        store, session_id, after_seq=checkpoint_seq, policy=policy
    )
    return RecoveredState(
        session_id=session_id,
        payload=payload,
        records=records,
        wal_seq=last_covered,
        warnings=warnings,
    )


def replay_records(session, records: list[WalRecord]) -> int:
    """Replay log records onto a live session; returns batches applied.

    Uses the exact codepaths a live server uses — ``apply_many`` for
    ``feedback`` records, ``undo_last_feedback`` for ``undo`` — so the
    recovered knowledge state is bit-identical to the original.
    """
    applied = 0
    for record in records:
        if record.kind == "feedback":
            session.apply_many(
                [feedback_from_dict(item) for item in record.items]
            )
            applied += 1
        elif record.kind == "undo":
            session.undo_last_feedback()
            applied += 1
        else:
            raise StoreError(
                f"cannot replay WAL record kind {record.kind!r}"
            )
    return applied


def verify_store(store: SQLiteStore, policy: str = "fail") -> dict:
    """Integrity sweep over every session; the core of ``repro store verify``.

    Checks that each checkpoint parses and that each log tail is
    contiguous with verified checksums.  With the default ``fail``
    policy any damage raises; with ``truncate`` the report lists what
    recovery would drop.  Returns a summary dict::

        {"sessions": {sid: {"tail_records": n, "wal_seq": n,
                            "warnings": [...]}},
         "ok": bool, "errors": {sid: "why"}}
    """
    validate_recovery_policy(policy)
    report: dict = {"sessions": {}, "errors": {}, "ok": True}
    for session_id in store.list_ids():
        try:
            state = load_session_state(store, session_id, policy=policy)
        except StoreError as exc:
            report["errors"][session_id] = str(exc)
            report["ok"] = False
            continue
        report["sessions"][session_id] = {
            "tail_records": state.replayed_batches,
            "wal_seq": state.wal_seq,
            "warnings": state.warnings,
        }
        if state.warnings:
            report["ok"] = False
    return report
