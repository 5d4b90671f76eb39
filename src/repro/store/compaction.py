"""Log compaction: fold a long feedback tail into a fresh checkpoint.

A write-ahead log grows without bound and recovery time grows with it —
every record in the tail is one ``apply_many`` replay.  Compaction
restores O(1) recovery by writing a checkpoint that *includes* the tail
(the live in-memory session already has it applied) and pruning the
folded records in the same transaction
(:meth:`~repro.store.sqlite.SQLiteStore.checkpoint_and_prune`).

The policy here is deliberately simple — compact when the tail exceeds
``max_tail_records`` — because the cost model is simple: replay cost is
linear in records, checkpoint cost is roughly constant.  The threshold
is checked by :class:`~repro.service.manager.SessionManager` after each
logged append; ``repro store compact`` runs the same fold offline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.store.recovery import recover_session
from repro.store.sqlite import SQLiteStore

__all__ = ["CompactionPolicy", "compact_offline", "should_compact"]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the log.  ``max_tail_records <= 0`` disables."""

    max_tail_records: int = 64

    @property
    def enabled(self) -> bool:
        return self.max_tail_records > 0


def should_compact(policy: CompactionPolicy, tail_records: int) -> bool:
    """True when the session's tail has outgrown the policy."""
    return policy.enabled and tail_records >= policy.max_tail_records


def compact_offline(
    store: SQLiteStore,
    session_id: str,
    data,
    *,
    standardize: bool = True,
    seed: int | None = None,
    payload_extra: dict | None = None,
) -> dict:
    """Fold one session's log offline (no server running).

    Recovers the session from checkpoint + tail, re-serialises it as a
    fresh checkpoint whose ``wal_seq`` covers the tail, and prunes the
    folded records.  ``payload_extra`` carries the checkpoint wrapper
    fields (dataset name, standardize, seed) the service normally adds.
    Returns ``{"replayed": n, "pruned": n, "wal_seq": n}``.
    """
    from repro.io import session_to_payload

    session, state = recover_session(
        store,
        session_id,
        data,
        standardize=standardize,
        seed=seed,
        policy="fail",
    )
    payload = dict(state.payload)
    if payload_extra:
        payload.update(payload_extra)
    payload["session"] = session_to_payload(session)
    payload["wal_seq"] = state.wal_seq
    pruned = store.checkpoint_and_prune(session_id, payload, state.wal_seq)
    return {
        "replayed": state.replayed_batches,
        "pruned": pruned,
        "wal_seq": state.wal_seq,
    }
