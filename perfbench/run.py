"""The repository benchmark: seeded analyst rounds against ``repro serve``.

    python3 perfbench/run.py --workload mark-20k --seed 1 --seconds 40 --trace 0

Starts a real ``repro serve`` process (from ``src/`` of this checkout),
sets it up several times to time set-up, then drives it for ``--seconds``
(and at least 100 rounds) from one closed-loop client thread, one
connection at a time.  Every request comes from a plan generated from
``--seed`` before the timed phase.  A correctness gate replays marks in
process.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the per-layer metrics, from a server started through
  ``trace_launcher.py``; the same run first repeats the untraced phase and
  prints the tracing overhead (traced minus untraced).

Exit status: 0 on success, 1 when the correctness gate fails, 2 when the
program under test is missing or cannot start, 3 when too few rounds fit
under the phase cap to support a p90.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    MIN_ROUNDS,
    TAIL_Q,
    ServerProcess,
    host_cpu_ticks,
    make_client,
    pinned_env,
    run_phase,
    summarize,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics every workload reports in its JSON line.
E2E_METRICS = (
    ("setup_s", "s"),
    ("round_trip_p50_ms", "ms"),
    ("round_trip_p90_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("view_detail_p50_ms", "ms"),
    ("view_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the others, but not in the JSON line.  ``feedback_p50_ms``
#: is a ~4 ms cross-process request on ``ica-1k-sharded``, the most
#: host-sensitive figure of that workload; on ``mark-20k`` its cost is
#: also inside ``round_trip_p50_ms``.  The two shares are 1 and 0 on a
#: healthy run, so they cannot be compared as a spread around a median.
REPORT_ONLY = (
    ("feedback_p50_ms", "ms"),
    ("budget_met_share", "share"),
    ("failed_share", "share"),
)


def main(argv=None) -> int:
    from plan import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from plan import make_plan
    from repro.cli import DATASETS

    workload = WORKLOADS[args.workload]
    bundle = DATASETS[workload.dataset]()
    plan = make_plan(workload, args.seed, bundle.labels)
    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print_environment()
    print_speed_probe("before the run")
    print(f"# plan: digest {plan.digest[:16]} "
          f"({len(plan.round_sessions)} rounds generated)")

    parent = os.path.join(ROOT, ".perfbench")
    run = Run(plan, bundle.data, args.seconds,
              os.path.join(parent, str(os.getpid())))
    try:
        return run.traced() if args.trace else run.untraced()
    except RuntimeError as exc:  # the server failed to start or set up
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Unsupported as exc:  # too few rounds fit under the phase cap
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        run.close()
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it


class Run:
    """One invocation: its servers, its phases and its report."""

    def __init__(self, plan, data, seconds: float, workdir: str) -> None:
        self.plan = plan
        self.data = data
        self.seconds = seconds
        self.workdir = workdir
        self.servers: list[ServerProcess] = []

    def close(self) -> None:
        """Stop every server this run started and remove its files."""
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def untraced(self) -> int:
        setup_times = []
        for k in range(SETUPS):
            if self.servers:
                self.servers[-1].stop()
            server, client, counter, checker, elapsed = self.start(str(k))
            setup_times.append(elapsed)
        phase = self.phase(server, client, counter, checker)
        server.stop()
        print("# set-up times (s): "
              + ", ".join(f"{t:.3f}" for t in setup_times))
        mismatches = self.gate(checker)
        problems = phase["problems"] + mismatches
        summary = phase["summary"]
        summary["setup_s"] = statistics.median(setup_times)
        add_failures(summary, len(mismatches))
        print_e2e(summary, phase, len(setup_times))
        report_problems(problems)
        print(result_line(
            not problems, summary["attempted"], summary["failed"],
            {name: (summary[name], unit) for name, unit in E2E_METRICS},
        ))
        return 1 if problems else 0

    def traced(self) -> int:
        from tracing import LAYER_METRICS, layer_metrics, perf_delta

        sharded = self.plan.workload.workers > 1
        server, client, counter, checker, plain_setup = self.start("plain")
        plain = self.phase(server, client, counter, checker)
        server.stop()
        mismatches = self.gate(checker)
        add_failures(plain["summary"], len(mismatches))
        problems = plain["problems"] + mismatches

        spans_path = os.path.join(self.workdir, "spans.json")
        server, client, counter, checker, traced_setup = self.start(
            "traced", trace_out=spans_path, perf=sharded
        )
        before = worker_perf(server) if sharded else None
        traced = self.phase(server, client, counter, checker)
        after = worker_perf(server) if sharded else None
        server.stop()
        mismatches = self.gate(checker)
        add_failures(traced["summary"], len(mismatches))
        problems += traced["problems"] + mismatches
        with open(spans_path) as fh:
            spans = json.load(fh)

        plain["summary"]["setup_s"] = plain_setup
        traced["summary"]["setup_s"] = traced_setup
        metrics, layers = layer_metrics(
            spans, traced["rounds"], plain["cpu_ms_per_round"],
            perf_delta(before, after) if sharded else None,
        )
        print_layers(metrics, layers, traced["summary"])
        print_overhead(plain["summary"], traced["summary"])
        report_problems(problems)
        attempted = (plain["summary"]["attempted"]
                     + traced["summary"]["attempted"])
        failed = plain["summary"]["failed"] + traced["summary"]["failed"]
        print(result_line(
            not problems, attempted, failed,
            {name: (metrics[name], unit) for name, unit in LAYER_METRICS},
        ))
        return 1 if problems else 0

    def start(self, tag: str, trace_out=None, perf=False):
        """Spawn a server; create and warm every session.  Returns the
        server, its client, the byte counter, the view checker and the
        set-up time (spawn until every session served its warm-up view)."""
        from gate import ViewChecker

        plan = self.plan
        workload = plan.workload
        started = time.perf_counter()
        server = ServerProcess(ROOT, os.path.join(self.workdir, tag),
                               serve_args(workload), trace_out=trace_out,
                               perf=perf)
        self.servers.append(server)
        client, counter = make_client(server.wait_ready())
        checker = ViewChecker(plan, self.data.shape[0])
        for s, sid in enumerate(plan.session_ids):
            client.create_session(
                workload.dataset,
                objective=workload.objective,
                standardize=True,
                seed=plan.session_seeds[s],
                session_id=sid,
            )
            problem = checker.warmup(s, client.view(sid, detail=True))
            if problem is not None:
                raise RuntimeError(f"warm-up view of {sid}: {problem}")
        elapsed = time.perf_counter() - started
        if workload.workers > 1:
            workers = get_json(server, "/workers")["workers"]
            server.pids += [w["pid"] for w in workers]
            print("# sessions per worker: "
                  + ", ".join(str(w.get("sessions")) for w in workers))
        return server, client, counter, checker, elapsed

    def phase(self, server, client, counter, checker) -> dict:
        cpu0 = server.cpu_s()
        steal0, total0 = host_cpu_ticks()
        rounds, elapsed, undos, undo_failures, problems = run_phase(
            client, counter, self.plan, self.seconds, checker
        )
        steal1, total1 = host_cpu_ticks()
        cpu = server.cpu_s() - cpu0
        print_speed_probe("after the timed phase")
        summary = summarize(rounds, elapsed, undos, undo_failures)
        summary["peak_rss_mb"] = server.peak_rss_mb()
        return {
            "rounds": rounds,
            "elapsed": elapsed,
            "summary": summary,
            "problems": problems,
            "cpu_ms_per_round": 1000.0 * cpu / max(1, len(rounds)),
            "steal_share": (steal1 - steal0) / max(1, total1 - total0),
            "server_argv": server.argv,
        }

    def gate(self, checker) -> list[str]:
        from gate import replay

        return replay(self.plan, self.data, checker)


def add_failures(summary: dict, count: int) -> None:
    """Count gate mismatches as failed requests."""
    summary["failed"] += count
    summary["failed_share"] = summary["failed"] / max(1, summary["attempted"])


def serve_args(workload) -> list[str]:
    # The server runs in its own directory with TMPDIR=".", so relative
    # paths (store, L2 cache, worker sockets) stay short and inside it.
    args = ["--host", "127.0.0.1", "--port", "0"]
    if workload.store:
        args += ["--store", "sqlite:store.db"]
    if workload.workers > 1:
        args += ["--workers", str(workload.workers), "--l2-cache", "l2.db"]
    return args


def worker_perf(server) -> list[dict]:
    stats = get_json(server, "/stats")
    return [w.get("perf", {}) for w in stats.get("workers", [])]


def get_json(server, path: str) -> dict:
    import urllib.request

    with urllib.request.urlopen(server.base_url + "/v1" + path,
                                timeout=60) as resp:
        return json.loads(resp.read())


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


class Unsupported(Exception):
    """A metric has no value the run's samples support."""


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The JSON result; refuses a metric without a supported value (a p90
    with fewer than ``TAIL_BEYOND`` rounds beyond it, say) rather than
    writing a number the samples do not back."""
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        raise Unsupported("no supported value for " + ", ".join(missing))
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def print_e2e(summary: dict, phase: dict, setups: int) -> None:
    n_ok = summary["rounds_ok"]
    beyond = n_ok - int(n_ok * TAIL_Q / 100)
    notes = {
        "setup_s": f"median of {setups} set-ups",
        "round_trip_p50_ms": f"{n_ok} rounds",
        "round_trip_p90_ms": f"{n_ok} rounds, {beyond} beyond p{TAIL_Q}",
        "rounds_per_s": f"{n_ok} rounds / {phase['elapsed']:.2f} s",
        "view_detail_p50_ms": f"{n_ok} views",
        "view_bytes": f"mean of {n_ok} view bodies",
        "peak_rss_mb": "VmHWM summed over server processes",
        "feedback_p50_ms": f"{n_ok} POST /feedback",
        "budget_met_share": f"{n_ok}/{summary['rounds']} rounds within 2 s",
        "failed_share": f"{summary['failed']}/{summary['attempted']} requests",
    }
    if summary["round_trip_p90_ms"] is None:
        # Fewer than MIN_ROUNDS rounds fit under the phase cap.
        notes["round_trip_p90_ms"] += f" (UNSUPPORTED: needs {MIN_ROUNDS})"
    print(f"# server: {' '.join(phase['server_argv'][1:])}")
    print(f"# requests sent: set-up + the first {summary['rounds']} rounds "
          "of the plan above")
    print(f"# host: steal {100 * phase['steal_share']:.1f}% of CPU time "
          "during the timed phase")
    print(f"# {'metric':<22}{'value':>14}  {'unit':<6} samples")
    for name, unit in E2E_METRICS + REPORT_ONLY:
        value = summary[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"# {name:<22}{shown:>14}  {unit:<6} {notes[name]}")


def print_layers(metrics: dict, layers: dict, summary: dict) -> None:
    from tracing import LAYER_METRICS

    print(f"# per-layer metrics over {summary['rounds_ok']} traced rounds "
          "(times and counts per round)")
    for name, unit in LAYER_METRICS:
        print(f"#   {name:<30}{metrics[name]:>14.4f}  {unit}")
    total = sum(layers.values())
    print(f"# self time by layer, ms per round (sums to the client's "
          f"{total:.2f} ms per round, undo included)")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = 100.0 * value / total if total else 0.0
        print(f"#   {layer:<14}{value:>12.3f}  {share:6.1f}%")


def print_overhead(plain: dict, traced: dict) -> None:
    print("# tracing overhead (traced minus untraced, same plan):")
    for name, unit in E2E_METRICS + REPORT_ONLY:
        a, b = plain.get(name), traced.get(name)
        if a is None or b is None:
            continue
        print(f"#   {name:<22}{a:>14.4f} -> {b:>14.4f}  {b - a:+.4f} {unit}")


def report_problems(problems: list[str]) -> None:
    if problems:
        print(f"# CORRECTNESS GATE FAILED ({len(problems)}):")
        for problem in problems[:20]:
            print(f"#   {problem}")
    else:
        print("# correctness gate: passed")


def print_environment() -> None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "n/a"
    except (OSError, subprocess.SubprocessError):
        commit = "n/a"
    pinned = " ".join(f"{k}={v}" for k, v in pinned_env().items())
    print(f"# env: nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"blas={blas_version} {pinned}")
    print(f"# program: commit={commit} src-sha256={source_digest()[:16]}")


def source_digest() -> str:
    """SHA-256 over ``src/`` Python files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def print_speed_probe(when: str) -> None:
    """Time two fixed loops in the benchmark process; reported, not gated.

    The numpy loop follows BLAS speed.  The JSON round trip follows the
    pure-Python speed that serialization-bound rounds depend on; on a
    shared host that can halve while BLAS speed moves far less.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((200, 200))
    floats = a.ravel()[:20000].tolist()

    def numpy_loop():
        b = a
        for _ in range(20):
            b = np.tanh(b @ a / 200.0)

    def json_loop():
        json.loads(json.dumps(floats))

    def median_ms(loop) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        return 1000.0 * statistics.median(times)

    print(f"# machine-speed probe {when}: numpy {median_ms(numpy_loop):.2f} "
          f"ms, json {median_ms(json_loop):.2f} ms (fixed loops in the "
          "benchmark process; reported, not gated)")


if __name__ == "__main__":
    # Before numpy is imported anywhere in this process.
    os.environ.update(pinned_env())
    # A terminated run still stops its servers (the finally in main).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
