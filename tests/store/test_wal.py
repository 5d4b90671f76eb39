"""Tests for write-ahead log records and fsync policies."""

import pytest

from repro.service.store import StoreError
from repro.store.wal import (
    WalRecord,
    record_checksum,
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

    def test_checksums_are_stable_across_versions(self):
        # Records already on disk must keep verifying, so these hashes are
        # pinned; a changed hash would read as bit rot.  The last record is
        # of the retired ``abort`` kind, the only one that set ``ref``.
        items = [{"kind": "cluster", "rows": [1, 2], "label": "a"}]
        assert WalRecord.make("s1", 3, items=items).checksum == "d2b48b79059d0f1b"
        keyed = WalRecord.make("s1", 4, items=[{"kind": "margins"}], key="key-1")
        assert keyed.checksum == "b1df3c456a77d491"
        old_abort = WalRecord(
            session_id="s1",
            seq=5,
            kind="abort",
            ref=4,
            checksum="0c01b16f018b0079",
        )
        assert old_abort.verify()


class TestFsyncPolicy:
    def test_valid_policies(self):
        for policy in ("always", "batch", "off"):
            assert validate_fsync_policy(policy) == policy

    def test_invalid_policy_rejected(self):
        with pytest.raises(StoreError):
            validate_fsync_policy("sometimes")
