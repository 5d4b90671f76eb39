"""Tests for write-ahead log records, abort resolution and fsync policies."""

import pytest

from repro.service.store import StoreError
from repro.store.wal import (
    WalRecord,
    record_checksum,
    resolve_aborts,
    validate_fsync_policy,
)


class TestWalRecord:
    def test_make_computes_checksum_and_verifies(self):
        rec = WalRecord.make("s1", 3, items=[{"kind": "cluster", "rows": [1]}])
        assert rec.checksum == record_checksum(
            "s1", 3, "feedback", rec.items, None
        )
        assert rec.verify()

    def test_tampered_record_fails_verify(self):
        rec = WalRecord.make("s1", 1, items=[{"rows": [1, 2]}])
        forged = WalRecord(
            session_id=rec.session_id,
            seq=rec.seq,
            kind=rec.kind,
            items=[{"rows": [1, 2, 3]}],
            checksum=rec.checksum,
        )
        assert not forged.verify()

    def test_checksum_depends_on_every_field(self):
        base = record_checksum("s", 1, "feedback", [], None)
        assert record_checksum("t", 1, "feedback", [], None) != base
        assert record_checksum("s", 2, "feedback", [], None) != base
        assert record_checksum("s", 1, "undo", [], None) != base
        assert record_checksum("s", 1, "feedback", [{"a": 1}], None) != base
        assert record_checksum("s", 1, "feedback", [], 1) != base


class TestResolveAborts:
    def test_abort_removes_target_and_marker(self):
        records = [
            WalRecord.make("s", 1, items=[{"a": 1}]),
            WalRecord.make("s", 2, items=[{"a": 2}]),
            WalRecord.make("s", 3, kind="abort", ref=2),
            WalRecord.make("s", 4, items=[{"a": 3}]),
        ]
        live = resolve_aborts(records)
        assert [r.seq for r in live] == [1, 4]


class TestFsyncPolicy:
    def test_valid_policies(self):
        for policy in ("always", "batch", "off"):
            assert validate_fsync_policy(policy) == policy

    def test_invalid_policy_rejected(self):
        with pytest.raises(StoreError):
            validate_fsync_policy("sometimes")
