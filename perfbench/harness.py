"""Server processes, the closed-loop client, and the summary statistics.

One :class:`ServerProcess` is one ``repro serve`` process group (the router
and its workers when sharded).  :func:`run_phase` drives it from a single
thread over one connection at a time, sending the rounds of a
:class:`~plan.Plan` in order, and returns one :class:`Round` per round.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: The paper's interactivity budget for one round, seconds.
BUDGET_S = 2.0
#: Samples a tail percentile needs beyond it before it is reported.
TAIL_BEYOND = 10
#: The tail percentile every run reports.
TAIL_Q = 90
#: Rounds a run needs so that ``TAIL_BEYOND`` samples lie beyond ``TAIL_Q``.
MIN_ROUNDS = math.ceil(TAIL_BEYOND * 100 / (100 - TAIL_Q))
#: A timed phase never runs longer than this, whatever ``MIN_ROUNDS`` asks,
#: so a run ends inside its 180 s limit even on a much slower program (a
#: traced run has two phases).
PHASE_CAP_S = 60.0

_ANNOUNCE = re.compile(rb"service on (http://[0-9.]+:[0-9]+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, q: float = TAIL_Q, beyond: int = TAIL_BEYOND):
    """The ``q``-th percentile, or ``None`` when fewer than ``beyond``
    samples lie above it (the tail is then not supported by the sample)."""
    n = len(values)
    if n == 0 or n * (100 - q) / 100.0 < beyond:
        return None
    return percentile(values, q)


@dataclass
class Round:
    """One round as the client saw it (seconds; ``ok`` False on failure)."""

    ok: bool
    wall: float
    feedback: float | None = None
    view: float | None = None
    view_bytes: int = 0
    requests: int = 0
    failed_requests: int = 0
    #: Trace ids of the round's requests, including the undo that resets
    #: a mark round (outside ``wall``, inside the phase clock).
    request_ids: list = field(default_factory=list)
    #: Client time inside each of those requests, by trace id.
    client_s: dict = field(default_factory=dict)
    #: Client time in JSON encode/decode for those requests.
    client_json_s: float = 0.0


def summarize(rounds: list[Round], elapsed: float, extra_requests: int = 0,
              extra_failed: int = 0) -> dict:
    """The end-to-end figures of one timed phase.

    Latency percentiles use the rounds that succeeded; ``round_trip_p90_ms``
    is ``None`` unless ``TAIL_BEYOND`` of them lie beyond it.  A failed
    round counts as a round that missed the budget, and every failed or
    refused request counts in ``failed_share``.
    """
    ok = [r for r in rounds if r.ok]
    walls = [r.wall * 1000.0 for r in ok]
    views = [r.view * 1000.0 for r in ok if r.view is not None]
    feedbacks = [r.feedback * 1000.0 for r in ok if r.feedback is not None]
    attempted = sum(r.requests for r in rounds) + extra_requests
    failed = sum(r.failed_requests for r in rounds) + extra_failed
    within = sum(1 for r in ok if r.wall <= BUDGET_S)
    return {
        "rounds": len(rounds),
        "rounds_ok": len(ok),
        "round_trip_p50_ms": percentile(walls, 50) if walls else None,
        "round_trip_p90_ms": tail_percentile(walls),
        "rounds_per_s": len(ok) / elapsed if elapsed > 0 else None,
        "feedback_p50_ms": percentile(feedbacks, 50) if feedbacks else None,
        "view_detail_p50_ms": percentile(views, 50) if views else None,
        "view_bytes": (
            sum(r.view_bytes for r in ok) / len(ok) if ok else None
        ),
        "budget_met_share": within / len(rounds) if rounds else None,
        "failed_share": failed / attempted if attempted else None,
        "attempted": attempted,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class ServerProcess:
    """``repro serve`` (or the tracing launcher) in its own process group."""

    def __init__(self, root: str, workdir: str, serve_args: list[str],
                 trace_out: str | None = None, perf: bool = False) -> None:
        os.makedirs(workdir, exist_ok=True)
        if trace_out is None:
            self.argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = os.path.join(root, "perfbench", "trace_launcher.py")
            self.argv = [sys.executable, launcher, trace_out, "serve",
                         *serve_args]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.update(pinned_env())
        env["PYTHONUNBUFFERED"] = "1"
        # The server runs in its own directory; with TMPDIR="." the sharded
        # runtime dir and its Unix sockets get short relative paths there.
        env["TMPDIR"] = "."
        if perf:
            env["REPRO_PERF"] = "1"
        else:
            env.pop("REPRO_PERF", None)
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            self.argv,
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.base_url: str | None = None
        self.pids = [self.proc.pid]

    def wait_ready(self, timeout: float = 90.0) -> str:
        """Block until the server announces its URL; return it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as fh:
                match = _ANNOUNCE.search(fh.read())
            if match:
                self.base_url = match.group(1).decode()
                return self.base_url
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"server did not start (exit={self.proc.poll()}):\n"
            + self.log_tail()
        )

    def log_tail(self, limit: int = 2000) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-limit:].decode("utf-8", "replace")

    def cpu_s(self) -> float:
        """User + system CPU seconds of every server process so far."""
        return sum(_proc_cpu_s(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of every server process, MiB."""
        return sum(_proc_hwm_kb(pid) for pid in self.pids) / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole group; wait.

        Idempotent, so a caller can stop every server it started in a
        ``finally`` whatever state each is in.
        """
        if self._log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Workers are in the same group; wait until each is gone.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            _alive(pid) for pid in self.pids[1:]
        ):
            time.sleep(0.02)
        self._log.close()


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else: a rising share marks a drifting host, not a slower program.
    """
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def pinned_env() -> dict:
    """One BLAS/OpenMP thread, so every process does the same arithmetic,
    and one glibc malloc arena, so a server's peak RSS does not depend on
    which arena each per-connection handler thread happened to get."""
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "MALLOC_ARENA_MAX": "1",
    }


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------


class ByteCountingJson:
    """Stands in for ``json`` inside ``repro.service.client``.

    Records the size of each response body the client decodes, which the
    client does not otherwise expose, and the time the client spends in
    JSON encode and decode.
    """

    JSONDecodeError = json.JSONDecodeError

    def __init__(self) -> None:
        self.last_bytes = 0
        self.seconds = 0.0

    def dumps(self, obj):
        t0 = time.perf_counter()
        try:
            return json.dumps(obj)
        finally:
            self.seconds += time.perf_counter() - t0

    def loads(self, raw):
        self.last_bytes = len(raw)
        t0 = time.perf_counter()
        try:
            return json.loads(raw)
        finally:
            self.seconds += time.perf_counter() - t0


def make_client(base_url: str):
    """A :class:`ServiceClient` that never retries and counts body bytes."""
    import repro.service.client as client_module

    counter = client_module.json
    if not isinstance(counter, ByteCountingJson):
        counter = ByteCountingJson()
        client_module.json = counter
    client = client_module.ServiceClient(
        base_url, timeout=120.0, connect_retries=0, max_retries=0,
        breaker=False,
    )
    return client, counter


def run_phase(client, counter, plan, seconds: float, check_view) -> tuple:
    """Send the plan's rounds for ``seconds`` (and at least ``MIN_ROUNDS``).

    ``check_view(session_index, round_index, payload)`` validates each view
    reply and returns a short error string or ``None``.  Returns
    ``(rounds, elapsed_s, undo_requests, undo_failures, problems)``.
    """
    from repro.service.client import ServiceClientError

    total = len(plan.round_sessions)
    rounds: list[Round] = []
    problems: list[str] = []
    undo_requests = undo_failures = 0
    perf = time.perf_counter
    started = perf()
    for i in range(total):
        elapsed = perf() - started
        if elapsed >= PHASE_CAP_S or (
            elapsed >= seconds and len(rounds) >= MIN_ROUNDS
        ):
            break
        s = int(plan.round_sessions[i])
        sid = plan.session_ids[s]
        item = plan.feedback_item(i)
        key = plan.idempotency_key(i)
        rnd = Round(ok=False, wall=0.0)
        json_s = counter.seconds
        t0 = perf()
        try:
            rnd.requests += 1
            client.apply_feedback(sid, [item], idempotency_key=key)
            t1 = perf()
            rnd.feedback = t1 - t0
            rnd.request_ids.append(client.last_trace_id)
            rnd.client_s[client.last_trace_id] = rnd.feedback
            rnd.requests += 1
            payload = client.view(sid, detail=True)
            t2 = perf()
            rnd.view = t2 - t1
            rnd.wall = t2 - t0
            rnd.view_bytes = counter.last_bytes
            rnd.request_ids.append(client.last_trace_id)
            rnd.client_s[client.last_trace_id] = rnd.view
            problem = check_view(s, i, payload)
            if problem is not None:
                problems.append(f"round {i}: {problem}")
                rnd.failed_requests += 1
            else:
                rnd.ok = True
        except ServiceClientError as exc:
            rnd.failed_requests += 1
            problems.append(f"round {i}: {exc}")
        rounds.append(rnd)
        if rnd.feedback is not None:
            # Retract the mark so the next round starts from the same
            # belief state; outside the round, inside the phase clock.
            undo_requests += 1
            t3 = perf()
            try:
                client.undo(sid)
            except ServiceClientError as exc:
                undo_failures += 1
                problems.append(f"undo after round {i}: {exc}")
            rnd.request_ids.append(client.last_trace_id)
            rnd.client_s[client.last_trace_id] = perf() - t3
        rnd.client_json_s = counter.seconds - json_s
    elapsed = perf() - started
    return rounds, elapsed, undo_requests, undo_failures, problems
