"""Every metric family fed by a service or kernel event, driven once.

Each test drives one event through the real code path with
observability on and asserts the exact change it makes to the twelve
families below: nothing else among them may move.  Time-valued
histograms are checked by count (their sums are wall-clock seconds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.background import BackgroundModel
from repro.feedback import ClusterFeedback
from repro.obs import read_events
from repro.resilience.admission import AdmissionController
from repro.service.api import ServiceAPI
from repro.service.manager import SessionManager
from repro.store.compaction import CompactionPolicy
from repro.store.recovery import load_session_state
from repro.store.sqlite import SQLiteStore

#: The families fed by solver, cache, feedback, store and admission events.
FAMILIES = (
    "repro_solve_duration_seconds",
    "repro_solver_sweeps_total",
    "repro_solve_cache_lookups_total",
    "repro_feedback_batch_size",
    "repro_wal_append_seconds",
    "repro_store_compactions_total",
    "repro_store_compacted_records_total",
    "repro_store_recoveries_total",
    "repro_store_recovered_batches_total",
    "repro_shed_total",
    "repro_deadline_exceeded_total",
    "repro_feedback_deduplicated_total",
)

#: Histograms whose sum is seconds: compared by count only.
_TIMED = {"repro_solve_duration_seconds", "repro_wal_append_seconds"}


@pytest.fixture
def events(tmp_path):
    """Observability on with a JSONL sink; yields the log path."""
    path = tmp_path / "events.jsonl"
    obs.configure(event_log=str(path))
    yield path
    obs.disable()


@pytest.fixture
def data():
    return np.random.default_rng(3).normal(size=(60, 3))


def _readings() -> dict:
    """``{(family[_count|_sum], labels): value}`` for the families."""
    snapshot = obs.active().metrics.render_json()
    out = {}
    for name in FAMILIES:
        family = snapshot[name]
        for sample in family["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if family["type"] == "histogram":
                out[(name + "_count", labels)] = sample["count"]
                if name not in _TIMED:
                    out[(name + "_sum", labels)] = sample["sum"]
            else:
                out[(name, labels)] = sample["value"]
    return out


class _Delta:
    """Context manager: what the block changed, as ``{name: change}``.

    Keys are ``family`` (or ``family_count`` / ``family_sum``) with a
    ``{label=value}`` suffix for labelled series.
    """

    def __enter__(self) -> dict:
        self.before = _readings()
        self.change: dict = {}
        return self.change

    def __exit__(self, *exc) -> None:
        after = _readings()
        for key in set(self.before) | set(after):
            moved = after.get(key, 0) - self.before.get(key, 0)
            if moved:
                name, labels = key
                suffix = ",".join(f"{k}={v}" for k, v in labels)
                self.change[f"{name}{{{suffix}}}" if suffix else name] = moved


def _mark(i: int, size: int = 10) -> ClusterFeedback:
    return ClusterFeedback(rows=tuple(range(i, i + size)), label=f"m{i}")


def _durable(path, data, **kw) -> SessionManager:
    return SessionManager(
        {"demo": data},
        store=SQLiteStore(path),
        compaction=CompactionPolicy(0),
        **kw,
    )


def test_a_solve(events, data):
    model = BackgroundModel(data)
    model.add_cluster_constraint(range(12), label="a")
    with _Delta() as change:
        report = model.fit()
    assert report.sweeps > 0
    assert change == {
        "repro_solve_duration_seconds_count": 1,
        "repro_solver_sweeps_total": report.sweeps,
    }


def test_a_cache_miss_then_a_hit(events, data):
    manager = SessionManager({"demo": data})
    first = manager.create("demo", seed=0)
    second = manager.create("demo", seed=0)
    for sid in (first, second):
        manager.apply_feedback(sid, [_mark(0)])
    with _Delta() as miss:
        _, meta = manager.view(first)
    assert meta["cache_hit"] is False
    assert miss == {
        "repro_solve_cache_lookups_total{result=miss}": 1,
        "repro_solve_duration_seconds_count": 1,
        "repro_solver_sweeps_total": meta["solver"]["sweeps"],
    }
    with _Delta() as hit:
        _, meta = manager.view(second)
    assert meta["cache_hit"] is True
    assert hit == {"repro_solve_cache_lookups_total{result=hit}": 1}


def test_a_three_item_batch(events, data):
    manager = SessionManager({"demo": data})
    sid = manager.create("demo", seed=0)
    with _Delta() as change:
        manager.apply_feedback(sid, [_mark(0), _mark(20), _mark(40)])
    assert change == {
        "repro_feedback_batch_size_count": 1,
        "repro_feedback_batch_size_sum": 3,
    }


def test_a_repeated_idempotency_key(events, data):
    manager = SessionManager({"demo": data})
    sid = manager.create("demo", seed=0)
    manager.apply_feedback(sid, [_mark(0)], idempotency_key="k-1")
    with _Delta() as change:
        stats = manager.apply_feedback(
            sid, [_mark(0)], idempotency_key="k-1"
        )
    assert stats["duplicate"] is True
    assert change == {
        "repro_feedback_batch_size_count": 1,
        "repro_feedback_batch_size_sum": 1,
        "repro_feedback_deduplicated_total": 1,
    }


def test_a_durable_append_and_an_undo(events, data, tmp_path):
    manager = _durable(tmp_path / "s.db", data)
    sid = manager.create("demo", seed=0)
    with _Delta() as change:
        manager.apply_feedback(sid, [_mark(0)])
        assert manager.undo(sid) is not None
    assert change == {
        "repro_feedback_batch_size_count": 1,
        "repro_feedback_batch_size_sum": 1,
        "repro_wal_append_seconds_count": 2,
    }


def test_a_compaction(events, data, tmp_path):
    manager = _durable(tmp_path / "s.db", data)
    sid = manager.create("demo", seed=0)
    manager.apply_feedback(sid, [_mark(0)])
    manager.apply_feedback(sid, [_mark(20)])
    with _Delta() as change:
        manager.checkpoint(sid)
    assert change == {
        "repro_store_compactions_total": 1,
        "repro_store_compacted_records_total": 2,
    }


def _logged_session(path, data, batches: int) -> str:
    """A durable session with ``batches`` records in its WAL tail."""
    manager = _durable(path, data)
    sid = manager.create("demo", session_id="tail", seed=0)
    for i in range(batches):
        manager.apply_feedback(sid, [_mark(10 * i)])
    manager.store.close()
    return sid


def test_a_resume_that_replays_a_tail(events, data, tmp_path):
    sid = _logged_session(tmp_path / "s.db", data, batches=2)
    fresh = _durable(tmp_path / "s.db", data)
    with _Delta() as change:
        fresh.session_stats(sid)
    assert change == {
        "repro_store_recoveries_total": 1,
        "repro_store_recovered_batches_total": 2,
    }
    assert not [
        e for e in read_events(events) if e["event"] == "recovery_warning"
    ]


def test_a_resume_over_a_torn_tail_warns(events, data, tmp_path):
    sid = _logged_session(tmp_path / "s.db", data, batches=3)
    store = SQLiteStore(tmp_path / "s.db")
    # The last record no longer matches its checksum: a torn write.
    store._execute(
        "UPDATE wal SET items = '[{\"kind\": \"cluster\", \"rows\": [9]}]' "
        "WHERE seq = 3"
    )
    warnings = len(load_session_state(store, sid, policy="truncate").warnings)
    assert warnings >= 1
    fresh = SessionManager(
        {"demo": data}, store=store, compaction=CompactionPolicy(0)
    )
    with _Delta() as change:
        stats = fresh.session_stats(sid)
    assert stats["feedback"] == ["m0", "m10"]  # m20 was torn
    assert change == {
        "repro_store_recoveries_total": 1,
        "repro_store_recovered_batches_total": 2,
    }
    warned = [
        e for e in read_events(events) if e["event"] == "recovery_warning"
    ]
    assert len(warned) == 1
    assert {k: v for k, v in warned[0].items() if k != "ts"} == {
        "event": "recovery_warning",
        "warnings": warnings,
        "replayed_batches": 2,
    }


def test_an_overloaded_and_a_draining_shed(events, data):
    api = ServiceAPI(
        SessionManager({"demo": data}),
        admission=AdmissionController(max_inflight=1),
    )
    with _Delta() as overloaded:
        with api.admission.admit():  # the one slot is taken
            status, payload = api.dispatch("GET", "/v1/datasets")
    assert (status, payload["kind"]) == (503, "overloaded")
    assert overloaded == {"repro_shed_total{reason=overloaded}": 1}
    api.admission.begin_drain()
    with _Delta() as draining:
        status, payload = api.dispatch("GET", "/v1/datasets")
    assert (status, payload["kind"]) == (503, "draining")
    assert draining == {"repro_shed_total{reason=draining}": 1}


def test_an_expired_deadline(events, data):
    manager = SessionManager({"demo": data})
    api = ServiceAPI(manager)
    sid = manager.create("demo", seed=0)
    manager.apply_feedback(sid, [_mark(0)])
    with _Delta() as change:
        status, payload = api.dispatch(
            "GET", f"/v1/sessions/{sid}/view", deadline_ms=0.001
        )
    assert (status, payload["kind"]) == (503, "deadline_exceeded")
    # The lookup missed; the solve it started never finished.
    assert change == {
        "repro_deadline_exceeded_total": 1,
        "repro_solve_cache_lookups_total{result=miss}": 1,
    }
