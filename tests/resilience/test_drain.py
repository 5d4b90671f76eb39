"""Overload shedding, request deadlines, and graceful drain over HTTP.

The paper's interactivity contract under pressure: excess load answers
``503 overloaded`` + ``Retry-After`` instead of queueing, requests that
cannot finish inside their budget abort with ``503 deadline_exceeded``
instead of burning a worker, and a draining server refuses new work,
checkpoints everything, and exits 0 so a successor can resume every
session.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import AdmissionController, DeadlineExceededError, deadline_scope
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.manager import SessionManager
from repro.service.server import start_background
from repro.store import SQLiteStore

_REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _wait_for(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.01)


class TestAdminDrainRoute:
    @pytest.fixture(autouse=True)
    def _store(self, tmp_path):
        self.store = SQLiteStore(tmp_path / "sessions.db", fsync="off")
        yield
        self.store.close()

    def _api(self, data):
        manager = SessionManager({"wl": data}, store=self.store)
        manager.create("wl", session_id="s1", seed=0)
        return ServiceAPI(manager)

    def test_drain_refuses_new_work_but_keeps_exempt_routes(
        self, two_cluster_data
    ):
        api = self._api(two_cluster_data[0])
        shutdowns = []
        api.shutdown_hook = lambda: shutdowns.append(True)

        status, payload = api.dispatch("POST", "/v1/admin/drain")
        assert status == 202
        assert payload["draining"] is True
        assert payload["initiated"] is True

        # The drain itself runs on a background thread so the 202 can
        # get out; its report lands on api.last_drain.
        _wait_for(lambda: api.last_drain is not None, message="drain report")
        report = api.last_drain
        assert report["idle"] is True
        assert report["checkpointed"] == 1
        assert shutdowns == [True]

        # Session work is refused with a redirect-me-elsewhere 503...
        status, payload = api.dispatch("GET", "/v1/sessions/s1/view")
        assert status == 503
        assert payload["kind"] == "draining"
        assert payload["retry_after"] > 0

        # ...while health stays answerable for the orchestrator.
        status, payload = api.dispatch("GET", "/v1/health")
        assert status == 200

        # A repeat drain is acknowledged but not re-initiated.
        status, payload = api.dispatch("POST", "/v1/admin/drain")
        assert status == 202
        assert payload["initiated"] is False

    def test_report_is_recorded_before_the_serve_loop_stops(
        self, two_cluster_data, tmp_path
    ):
        """Once the hook stops the serve loop the process may exit at
        once, so the report must already be on ``last_drain`` and in the
        event log when the hook runs."""
        from repro import obs

        api = self._api(two_cluster_data[0])
        log = tmp_path / "events.jsonl"
        seen_by_hook = []

        def hook():
            events = [json.loads(line) for line in log.read_text().splitlines()]
            seen_by_hook.append((api.last_drain, [e.get("event") for e in events]))

        api.shutdown_hook = hook
        obs.configure(event_log=str(log))
        try:
            assert api.dispatch("POST", "/v1/admin/drain")[0] == 202
            _wait_for(lambda: seen_by_hook, message="shutdown hook")
        finally:
            obs.disable()
        report, events = seen_by_hook[0]
        assert report is not None and report["checkpointed"] == 1
        assert "drain" in events

    def test_drain_budget_validation(self, two_cluster_data):
        api = self._api(two_cluster_data[0])
        status, payload = api.dispatch(
            "POST", "/v1/admin/drain", {"budget_seconds": -1}
        )
        assert status == 400

    @pytest.mark.parametrize("budget", [float("inf"), 1e300, float("nan")])
    @pytest.mark.parametrize("door", ["api", "router"])
    def test_unbounded_budget_is_refused_and_nothing_drains(
        self, two_cluster_data, tmp_path, door, budget
    ):
        """An infinite or huge budget overflows the timed wait for
        in-flight work, and NaN makes it spin: both front doors answer
        400 and stay open, even with a request in flight."""
        data = two_cluster_data[0]
        if door == "api":
            front = self._api(data)
        else:
            from repro.service.router import InProcessWorker, Router, WorkerPool

            def factory(worker_id):
                manager = SessionManager({"wl": data})
                return InProcessWorker(
                    ServiceAPI(manager), manager, worker_id, str(tmp_path)
                )

            front = Router(WorkerPool(1, factory))
        try:
            with front.admission.admit():
                status, payload = front.dispatch(
                    "POST", "/v1/admin/drain", {"budget_seconds": budget}
                )
            assert status == 400, payload
            assert not front.admission.draining
            assert front.last_drain is None
        finally:
            front.close()


class TestOverloadOverHttp:
    def test_excess_load_sheds_with_retry_after_header(
        self, two_cluster_data
    ):
        manager = SessionManager({"wl": two_cluster_data[0]})
        api = ServiceAPI(
            manager,
            admission=AdmissionController(max_inflight=1, retry_after=1.5),
        )
        server = start_background(api)
        try:
            with api.admission.admit():  # the one slot is taken
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(
                        f"{server.base_url}/v1/datasets", timeout=10
                    )
                exc = info.value
                assert exc.code == 503
                assert float(exc.headers["Retry-After"]) == 1.5
                payload = json.loads(exc.read())
                assert payload["kind"] == "overloaded"
            # Slot free again: the same request is served.
            with urllib.request.urlopen(
                f"{server.base_url}/v1/datasets", timeout=10
            ) as response:
                assert response.status == 200
        finally:
            server.stop()

    def test_client_counts_sheds_and_honours_retry_after(
        self, two_cluster_data
    ):
        manager = SessionManager({"wl": two_cluster_data[0]})
        api = ServiceAPI(
            manager,
            admission=AdmissionController(max_inflight=1, retry_after=0.01),
        )
        server = start_background(api)
        try:
            client = ServiceClient(
                server.base_url, max_retries=1, retry_delay=0.0,
                breaker=False,
            )
            with api.admission.admit():
                with pytest.raises(ServiceClientError) as info:
                    client.datasets()
                assert info.value.status == 503
            # 503 + Retry-After is client-retryable: one retry happened
            # (against the still-held slot) before the error surfaced.
            assert client.last_attempts == 2
            assert client.counters["shed"] == 2
            assert client.counters["retries"] == 1
        finally:
            server.stop()


class TestDeadlineOverHttp:
    def test_tiny_deadline_aborts_solver_work(self, two_cluster_data):
        data = two_cluster_data[0]
        manager = SessionManager({"wl": data})
        server = start_background(ServiceAPI(manager))
        try:
            setup = ServiceClient(server.base_url, breaker=False)
            sid = setup.create_session("wl", seed=0)
            setup.mark_cluster(sid, rows=range(10), label="c0")

            # In-process sanity: this view needs a solve, and the solver
            # checks the ambient deadline every sweep.
            with deadline_scope(0.001):
                with pytest.raises(DeadlineExceededError):
                    manager.view(sid, objective="ica")

            tight = ServiceClient(
                server.base_url, deadline_ms=0.001, breaker=False
            )
            with pytest.raises(ServiceClientError) as info:
                tight.view(sid, objective="ica")
            assert info.value.status == 503
            assert info.value.payload["kind"] == "deadline_exceeded"
            # Deliberately non-retryable: resending the same budget would
            # just burn it again.
            assert tight.last_attempts == 1
            assert tight.counters["deadline_exceeded"] == 1
            assert tight.counters["retries"] == 0

            # A sane budget on the same session still gets its view.
            roomy = ServiceClient(
                server.base_url, deadline_ms=60_000, breaker=False
            )
            view = roomy.view(sid, objective="ica")
            assert "axes" in view
        finally:
            server.stop()

    def test_malformed_deadline_header_is_a_400(self, two_cluster_data):
        manager = SessionManager({"wl": two_cluster_data[0]})
        server = start_background(ServiceAPI(manager))
        try:
            request = urllib.request.Request(
                f"{server.base_url}/v1/datasets",
                headers={"X-Repro-Deadline-Ms": "soon"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 400
        finally:
            server.stop()


def _read_until(worker, needle, timeout=60.0):
    """The first stdout line of ``worker`` that contains ``needle``.

    Polls the pipe, so a server that never prints the line fails the
    test after ``timeout`` seconds instead of blocking it.
    """
    deadline = time.monotonic() + timeout
    fd = worker.stdout.fileno()
    seen = ""
    while time.monotonic() < deadline and worker.poll() is None:
        if select.select([fd], [], [], 0.1)[0]:
            seen += os.read(fd, 65536).decode(errors="replace")
            for line in seen.splitlines():
                if needle in line:
                    return line
    if worker.poll() is not None:
        seen += worker.stderr.read()
    pytest.fail(f"never saw {needle!r} in serve output; got: {seen}")


def _stop_group(proc) -> None:
    """SIGKILL a still-running server and every worker in its group."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    proc.stdout.close()
    proc.stderr.close()


def _sigterm_then_resume(tmp_path, tmpdir, *serve_args):
    """SIGTERM mid-session: drain, exit 0, successor serves the session.

    Each server exits on SIGTERM and leaves no fleet runtime directory
    (``repro-shard-*``) in ``tmpdir``, its TMPDIR.
    """
    store_url = f"sqlite:{tmp_path / 'sessions.db'}"
    env = {
        "PYTHONPATH": _REPO_SRC,
        "PATH": "/usr/bin:/bin:/usr/local/bin",
        "PYTHONUNBUFFERED": "1",
        "TMPDIR": str(tmpdir),
    }
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--store", store_url,
        "--drain-budget", "5", *serve_args,
    ]

    def start():
        # Own process group: cleanup reaches the workers of --workers N.
        return subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )

    def terminate(server) -> str:
        os.kill(server.pid, signal.SIGTERM)
        server.wait(timeout=60)
        assert server.returncode == 0
        out, err = server.communicate(timeout=10)
        assert not list(tmpdir.glob("repro-shard-*"))
        return "".join([out or "", err or ""])

    worker = start()
    try:
        banner = _read_until(worker, "repro service on http://")
        port = int(banner.rsplit(":", 1)[1])
        client = ServiceClient(
            f"http://127.0.0.1:{port}", breaker=False
        )
        sid = client.create_session("three-d", session_id="term", seed=7)
        client.mark_cluster(sid, rows=range(8), label="pre-term")
        before = client.view(sid)

        combined = terminate(worker)
        assert "drained:" in combined
        assert "1 session(s) checkpointed" in combined
    finally:
        _stop_group(worker)

    # A successor on the same store resumes the checkpointed session and
    # serves the identical view.
    worker2 = start()
    try:
        banner = _read_until(worker2, "repro service on http://")
        port2 = int(banner.rsplit(":", 1)[1])
        client2 = ServiceClient(f"http://127.0.0.1:{port2}", breaker=False)
        resumed = client2.session("term")
        assert [f["label"] for f in resumed["feedback_log"]] == ["pre-term"]
        after = client2.view("term")
        np.testing.assert_array_equal(
            np.asarray(after["axes"]), np.asarray(before["axes"])
        )
        terminate(worker2)
    finally:
        _stop_group(worker2)


def test_sigterm_drains_checkpoints_and_restart_resumes(tmp_path, short_tmp):
    _sigterm_then_resume(tmp_path, short_tmp)


def test_sharded_sigterm_drains_checkpoints_and_restart_resumes(
    tmp_path, short_tmp
):
    """The same over ``--workers 2``: the router drains the fleet."""
    _sigterm_then_resume(tmp_path, short_tmp, "--workers", "2")


def test_sharded_serve_records_history_and_grades_slos_at_the_door(
    tmp_path, short_tmp
):
    """``--workers 2`` takes every ``serve`` option, and the door records
    the workers' merged metrics and grades its SLOs on them."""
    log = tmp_path / "ev.jsonl"
    env = {
        "PYTHONPATH": _REPO_SRC,
        "PATH": "/usr/bin:/bin:/usr/local/bin",
        "PYTHONUNBUFFERED": "1",
        "TMPDIR": str(short_tmp),
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--obs", "--obs-log", str(log),
         "--obs-rotate-mb", "1", "--history-interval", "0.2",
         "--history-capacity", "50", "--view-p99-budget", "1.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        banner = _read_until(proc, "repro service on http://")
        url = f"http://127.0.0.1:{int(banner.rsplit(':', 1)[1])}"
        client = ServiceClient(url, breaker=False)
        for seed in range(4):
            sid = client.create_session("three-d", seed=seed)
            client.mark_cluster(sid, rows=range(8), label="blob")
            client.view(sid)
        time.sleep(1.0)  # the recorder samples after the last request

        history = client.metrics_history()
        with urllib.request.urlopen(f"{url}/v1/workers", timeout=30) as reply:
            workers = json.loads(reply.read())["workers"]
        health = client.health()

        assert history["enabled"] is True
        assert len(history["samples"]) >= 2
        last = history["samples"][-1]["families"]["repro_requests_total"]
        assert sum(s["value"] for s in last["samples"]) == sum(
            w["requests_total"] for w in workers
        ) > 0
        slos = {row["name"]: row for row in health["slos"]}
        assert slos["view-latency-p99"]["long"]["threshold"] == 1.5
        assert health["workers"]["alive"] == 2
        check = subprocess.run(
            [sys.executable, "-m", "repro", "slo", "check", "--url", url,
             "--objective", "view-latency-p99"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert (tmp_path / "ev.jsonl.worker0").exists()
        assert (tmp_path / "ev.jsonl.worker1").exists()
    finally:
        _stop_group(proc)


@pytest.mark.parametrize("budget", ["inf", "1e300", "nan"])
def test_serve_refuses_an_unbounded_drain_budget(budget, capsys):
    from repro.cli import main

    # Port -1 cannot be bound, so a server that got past the budget
    # check fails at once instead of serving.
    assert main(["serve", "--port", "-1", "--drain-budget", budget]) == 2
    assert "--drain-budget" in capsys.readouterr().err
