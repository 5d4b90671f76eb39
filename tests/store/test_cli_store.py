"""Tests for ``store_from_url`` and the ``repro store`` subcommands."""

import json

import numpy as np
import pytest

from repro.cli import DATASETS, build_parser, cmd_store, main
from repro.core.session import ExplorationSession
from repro.io import session_to_payload
from repro.service.store import StoreError
from repro.store import store_from_url
from repro.store.sqlite import SQLiteStore


class TestStoreFromUrl:
    def test_memory(self):
        # No memory: backend: sessions without a store already live in
        # process memory, so the URL is refused like dir: and wal:.
        for url in ("memory:", "memory"):
            with pytest.raises(StoreError, match="expected sqlite:PATH"):
                store_from_url(url)

    def test_dir(self, tmp_path):
        # No dir: backend: the error names the accepted form, and nothing
        # is created on disk.
        with pytest.raises(StoreError, match="expected sqlite:PATH"):
            store_from_url(f"dir:{tmp_path / 'ck'}")
        assert not (tmp_path / "ck").exists()

    def test_wal(self, tmp_path):
        with pytest.raises(StoreError, match="expected sqlite:PATH"):
            store_from_url(f"wal:{tmp_path / 'ck'}")
        assert not (tmp_path / "ck").exists()

    def test_sqlite(self, tmp_path):
        store = store_from_url(f"sqlite:{tmp_path / 's.db'}", fsync="always")
        assert isinstance(store, SQLiteStore)
        assert store.fsync == "always"
        store.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StoreError, match="sqlite:"):
            store_from_url("redis://nope")
        with pytest.raises(StoreError, match="sqlite:"):
            store_from_url("sqlite:")  # no path

    @pytest.mark.parametrize("scheme", ["dir", "wal"])
    def test_serve_exits_2_on_removed_scheme(self, scheme, tmp_path, capsys):
        assert main(["serve", "--store", f"{scheme}:{tmp_path}"]) == 2
        assert "expected sqlite:PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_exits_2_on_memory_url(self, workers, capsys):
        # Refused before any worker starts, in both modes.
        argv = ["serve", "--store", "memory:", "--workers", workers]
        assert main(argv) == 2
        assert "expected sqlite:PATH" in capsys.readouterr().err


class TestParser:
    def test_serve_store_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "sqlite:/tmp/s.db", "--fsync", "always"]
        )
        assert args.store == "sqlite:/tmp/s.db"
        assert args.fsync == "always"

    def test_store_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["store", "verify", "sqlite:x.db"])
        assert args.store_command == "verify" and args.policy == "fail"
        args = parser.parse_args(
            ["store", "compact", "sqlite:x.db", "--session", "s1"]
        )
        assert args.session == "s1"
        args = parser.parse_args(["store", "inspect", "sqlite:x.db", "--json"])
        assert args.json


def _seed_served_session(url, dataset="three-d", batches=3, sid="cli-s"):
    """Create a session + feedback the way a durable server would."""
    from repro.feedback import ClusterFeedback
    from repro.service.manager import SessionManager

    store = store_from_url(url)
    manager = SessionManager(
        {dataset: DATASETS[dataset]().data},
        store=store,
        max_tail_records=0,
    )
    manager.create(dataset, session_id=sid, seed=0)
    for i in range(batches):
        manager.apply_feedback(
            sid, [ClusterFeedback(rows=(i, i + 1, i + 2), label=f"b{i}")]
        )
    store.close()


class TestCmdStore:
    def test_inspect_reports_tail(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 's.db'}"
        _seed_served_session(url)
        assert cmd_store("inspect", url, as_json=True) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["durable"] is True
        assert report["sessions"]["cli-s"]["tail_records"] == 3

    def test_verify_ok_and_exit_codes(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 's.db'}"
        _seed_served_session(url)
        assert cmd_store("verify", url) == 0
        out = capsys.readouterr().out
        assert "store OK" in out

    def test_verify_fails_on_damage(self, tmp_path, capsys):
        import sqlite3

        db = tmp_path / "s.db"
        _seed_served_session(f"sqlite:{db}")
        with sqlite3.connect(db) as conn:
            conn.execute("DELETE FROM wal WHERE seq = 2")
        assert cmd_store("verify", f"sqlite:{db}") == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_compact_folds_the_log(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 's.db'}"
        _seed_served_session(url)
        assert cmd_store("compact", url) == 0
        out = capsys.readouterr().out
        assert "replayed 3" in out
        assert cmd_store("inspect", url, as_json=True) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sessions"]["cli-s"]["tail_records"] == 0
        assert report["sessions"]["cli-s"]["checkpoint_wal_seq"] == 3

    def test_compact_keeps_idempotency_keys(self, tmp_path, capsys):
        """A retry after an offline fold is answered, not applied again."""
        from repro.feedback import ClusterFeedback
        from repro.service.manager import SessionManager

        url = f"sqlite:{tmp_path / 's.db'}"
        batch = [ClusterFeedback(rows=(0, 1, 2), label="a")]

        def manager():
            return SessionManager(
                {"three-d": DATASETS["three-d"]().data},
                store=store_from_url(url),
            )

        first = manager()
        first.create("three-d", session_id="keyed", seed=0)
        first.apply_feedback("keyed", batch, idempotency_key="k-1")
        assert cmd_store("compact", url, as_json=True) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["keyed"] == {"replayed": 1, "pruned": 1, "wal_seq": 1}
        retry = manager().apply_feedback(
            "keyed", batch, idempotency_key="k-1"
        )
        assert retry["duplicate"] is True
        assert retry["feedback"] == ["a"]
        assert [item["label"] for item in retry["feedback_log"]] == ["a"]

    def test_compact_one_session_leaves_the_others(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 's.db'}"
        _seed_served_session(url, sid="one")
        _seed_served_session(url, sid="two")
        assert cmd_store("compact", url, as_json=True, session="one") == 0
        assert list(json.loads(capsys.readouterr().out)) == ["one"]
        assert cmd_store("inspect", url, as_json=True) == 0
        sessions = json.loads(capsys.readouterr().out)["sessions"]
        assert sessions["one"]["tail_records"] == 0
        assert sessions["two"]["tail_records"] == 3

    def test_compact_refuses_a_damaged_log(self, tmp_path, capsys):
        """The fold never truncates: a gap fails the session, untouched."""
        import sqlite3

        db = tmp_path / "s.db"
        _seed_served_session(f"sqlite:{db}")
        with sqlite3.connect(db) as conn:
            conn.execute("DELETE FROM wal WHERE seq = 2")
        assert cmd_store("compact", f"sqlite:{db}") == 1
        assert "FAILED" in capsys.readouterr().out
        store = SQLiteStore(db)
        records, _ = store.feedback_tail("cli-s")
        assert [record.seq for record in records] == [1, 3]
        assert store.get("cli-s")["wal_seq"] == 0
        store.close()

    def test_compact_rejects_checkpoint_only_store(self, capsys):
        assert cmd_store("compact", "memory:") == 2
        assert "expected sqlite:PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["inspect", "verify"])
    def test_inspect_and_verify_refuse_a_non_durable_url(self, action, capsys):
        assert cmd_store(action, "memory:") == 2
        assert "expected sqlite:PATH" in capsys.readouterr().err

    def test_main_dispatches_store(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 's.db'}"
        _seed_served_session(url)
        assert main(["store", "verify", url]) == 0

    def test_compact_unknown_dataset_fails(self, tmp_path, capsys):
        db = tmp_path / "odd.db"
        store = SQLiteStore(db)
        session = ExplorationSession(np.eye(4), seed=0)
        store.checkpoint_and_prune(
            "odd",
            {
                "dataset": "not-a-registered-dataset",
                "wal_seq": 0,
                "session": session_to_payload(session),
            },
            0,
        )
        store.close()
        assert cmd_store("compact", f"sqlite:{db}") == 1
        assert "FAILED" in capsys.readouterr().out
